package server

import (
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// slotModel is the reference the slot index must agree with: a plain map
// assigning slots in first-seen order, and an order-independent fingerprint
// of its (ID, slot) pairs, kept incrementally.
type slotModel struct {
	slots map[trace.BranchID]uint32
	sum   uint64
}

// pairHash mixes one (ID, slot) pair into 64 bits (splitmix64 finalizer).
func pairHash(id trace.BranchID, s uint32) uint64 {
	z := uint64(id)<<32 | uint64(s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (m *slotModel) slot(id trace.BranchID) uint32 {
	s, ok := m.slots[id]
	if !ok {
		s = uint32(len(m.slots))
		m.slots[id] = s
		m.sum += pairHash(id, s)
	}
	return s
}

// indexFingerprint iterates x and returns how many pairs it visits and
// their pairHash sum.
func indexFingerprint(x *slotIndex) (n int, sum uint64) {
	x.each(func(id trace.BranchID, s uint32) {
		n++
		sum += pairHash(id, s)
	})
	return n, sum
}

// checkIndexEqualsModel compares x with the model pair by pair.
func checkIndexEqualsModel(t *testing.T, x *slotIndex, want map[trace.BranchID]uint32) {
	t.Helper()
	seen := 0
	x.each(func(id trace.BranchID, s uint32) {
		seen++
		if w, ok := want[id]; !ok || w != s {
			t.Fatalf("index iterates (%d, %d), model has slot %d (present %v)", id, s, w, ok)
		}
	})
	if seen != len(want) || x.n != uint32(len(want)) {
		t.Fatalf("index iterates %d pairs and counts %d slots, model holds %d", seen, x.n, len(want))
	}
}

// windowEdge returns the largest ID x's window admits, found by bisection so
// that it follows the admission rule whatever its bound. x must hold an ID.
func windowEdge(x *slotIndex) trace.BranchID {
	lo, hi := uint64(x.base), uint64(1<<32) // x admits lo and no ID reaches hi
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; x.admits(trace.BranchID(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return trace.BranchID(lo)
}

// slotIndexStreams returns the seeded ID streams the model test drives.
// The model test also revisits earlier IDs between them.
func slotIndexStreams() []struct {
	name  string
	ids   func(x *slotIndex, step int, next func() uint64) trace.BranchID
	n     int
	dense bool // the index must never create its map
} {
	return []struct {
		name  string
		ids   func(x *slotIndex, step int, next func() uint64) trace.BranchID
		n     int
		dense bool
	}{
		{"dense0", func(_ *slotIndex, i int, _ func() uint64) trace.BranchID { return trace.BranchID(i) }, 3000, true},
		{"dense2^31", func(_ *slotIndex, i int, _ func() uint64) trace.BranchID { return trace.BranchID(1<<31 + i) }, 3000, true},
		{"outlier-then-dense", func(_ *slotIndex, i int, _ func() uint64) trace.BranchID {
			if i == 0 {
				return 1<<31 + 12345
			}
			return trace.BranchID(i - 1)
		}, 3000, false},
		{"half-density", func(_ *slotIndex, i int, _ func() uint64) trace.BranchID { return trace.BranchID(1000 + 2*i) }, 3000, false},
		{"shuffled-window", func(_ *slotIndex, _ int, next func() uint64) trace.BranchID {
			return trace.BranchID(5000 + next()%4000)
		}, 3000, false},
		// The last ID the window admits and the first it refuses, in
		// turn: the refused ones go to the map and fall inside the
		// window once it has grown past them.
		{"moving-edge", func(x *slotIndex, i int, _ func() uint64) trace.BranchID {
			if x.n == 0 {
				return 777
			}
			return windowEdge(x) + trace.BranchID(i%2)
		}, 3000, false},
		{"random", func(_ *slotIndex, _ int, next func() uint64) trace.BranchID { return trace.BranchID(next()) }, 10_000, false},
		{"extremes", func(_ *slotIndex, i int, _ func() uint64) trace.BranchID {
			// 2^32-1, 0, 2^32-2, 1, ...: the first ID anchors the
			// window at the top page, so low IDs wrap below its base.
			if i%2 == 0 {
				return trace.BranchID(1<<32 - 1 - uint32(i/2))
			}
			return trace.BranchID(i / 2)
		}, 3000, false},
	}
}

// fingerprintEvery returns how often, in steps, the model test compares
// the iterated (ID, slot) set. That check iterates the whole index, so it
// is quadratic over a stream; the race detector slows it tenfold and has
// nothing to find in single-goroutine code, so race builds sample it.
func fingerprintEvery() int {
	if raceEnabled {
		return 64
	}
	return 1
}

// TestSlotIndexMatchesMapModel drives the slot index and a plain map with
// the same seeded ID streams. After every step the slot assigned, a lookup
// of the ID and of a random one, and the iterated (ID, slot) set must
// agree (the set by count and fingerprint each step, pair by pair every 500
// steps and at the end), and the window must stay within 2·slots + two
// pages. Dense IDs never create the map.
func TestSlotIndexMatchesMapModel(t *testing.T) {
	for k, stream := range slotIndexStreams() {
		t.Run(stream.name, func(t *testing.T) {
			state := uint64(k + 1)
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			var x slotIndex
			m := slotModel{slots: map[trace.BranchID]uint32{}}
			var sent []trace.BranchID
			for step := 0; step < stream.n; step++ {
				id := stream.ids(&x, step, next)
				if len(sent) > 0 && next()%4 == 0 {
					id = sent[next()%uint64(len(sent))]
				}
				sent = append(sent, id)

				s, ok := x.window(id)
				if !ok {
					s = x.miss(id)
				}
				if want := m.slot(id); s != want {
					t.Fatalf("step %d: ID %d got slot %d, model %d", step, id, s, want)
				}
				if got, ok := x.get(id); !ok || got != s {
					t.Fatalf("step %d: get(%d) = %d, %v after assigning %d", step, id, got, ok, s)
				}
				probe := trace.BranchID(next())
				_, inModel := m.slots[probe]
				if got, ok := x.get(probe); ok != inModel || (ok && got != m.slots[probe]) {
					t.Fatalf("step %d: get(%d) = %d, %v; model %d, %v", step, probe, got, ok, m.slots[probe], inModel)
				}
				if span := uint64(len(x.dir)) * core.PageUnits; span >= 2*uint64(x.n)+2*core.PageUnits {
					t.Fatalf("step %d: window spans %d IDs for %d slots", step, span, x.n)
				}
				if step%fingerprintEvery() == 0 {
					if n, sum := indexFingerprint(&x); n != len(m.slots) || sum != m.sum {
						t.Fatalf("step %d: index iterates %d pairs, model holds %d (or their sets differ)", step, n, len(m.slots))
					}
				}
				if step%500 == 0 {
					checkIndexEqualsModel(t, &x, m.slots)
				}
			}
			checkIndexEqualsModel(t, &x, m.slots)
			if stream.dense && x.far != nil {
				t.Fatalf("dense IDs spilled %d IDs into the map", len(x.far))
			}
			for _, id := range sent {
				s, ok := x.get(id)
				if !ok || s != m.slots[id] {
					t.Fatalf("get(%d) = %d, %v at the end, model %d", id, s, ok, m.slots[id])
				}
				_, inWindow := x.window(id)
				if _, inFar := x.far[id]; inWindow == inFar {
					t.Fatalf("ID %d: in the window %v, in the map %v; want exactly one", id, inWindow, inFar)
				}
			}
		})
	}
}

// TestSlotIndexSnapshotRoundTrip restores a table's exported entries into a
// fresh table, for the model test's ID streams: the fresh partition's index
// must equal a model fed the IDs in snapshot order (sorted, so the window
// is based at the smallest ID's page), and both tables must export the
// same entries and decide every unit alike.
func TestSlotIndexSnapshotRoundTrip(t *testing.T) {
	for k, stream := range slotIndexStreams() {
		t.Run(stream.name, func(t *testing.T) {
			state := uint64(k + 101)
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			src := NewTable(testParams())
			var instr uint64
			for step := 0; step < stream.n; step++ {
				var x *slotIndex
				if p := src.lookup("p"); p != nil {
					x = &p.index
				} else {
					x = new(slotIndex)
				}
				ev := [1]trace.Event{{Branch: stream.ids(x, step, next), Taken: next()&1 == 0, Gap: 3}}
				_, instr = src.ApplyBatch("p", ev[:], instr, nil)
			}
			entries := src.SnapshotEntries()

			dst := NewTable(testParams())
			if err := dst.RestoreEntries(entries); err != nil {
				t.Fatal(err)
			}
			want := map[trace.BranchID]uint32{}
			for _, es := range entries {
				want[es.Branch] = uint32(len(want))
			}
			restored := &dst.lookup("p").index
			checkIndexEqualsModel(t, restored, want)
			if base := uint32(entries[0].Branch) &^ (core.PageUnits - 1); restored.base != base {
				t.Fatalf("restored window based at %d, want the smallest ID's page %d", restored.base, base)
			}
			got := dst.SnapshotEntries()
			if len(got) != len(entries) {
				t.Fatalf("restored table exports %d entries, want %d", len(got), len(entries))
			}
			for i := range entries {
				if got[i] != entries[i] {
					t.Fatalf("entry %d: restored %+v, exported %+v", i, got[i], entries[i])
				}
				if a, b := src.Decide("p", entries[i].Branch), dst.Decide("p", entries[i].Branch); a != b {
					t.Fatalf("unit %d: restored table decides %v, source %v", entries[i].Branch, b, a)
				}
			}
		})
	}
}
