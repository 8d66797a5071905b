package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// applyAllBatched drives events through the table with ApplyBatch in chunks
// of batch, returning the encoded decision sequence.
func applyAllBatched(t *Table, program string, evs []trace.Event, instr *uint64, batch int) []byte {
	out := make([]byte, 0, len(evs))
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		out, *instr = t.ApplyBatch(program, evs[off:end], *instr, out)
	}
	return out
}

// dealPrograms deals evs round-robin over n programs, returning each
// program's name and event stream. One program keeps the bare base name.
func dealPrograms(base string, evs []trace.Event, n int) ([]string, [][]trace.Event) {
	names := make([]string, n)
	streams := make([][]trace.Event, n)
	for k := range names {
		names[k] = base
		if n > 1 {
			names[k] = fmt.Sprintf("%s-%d", base, k)
		}
	}
	for i, ev := range evs {
		streams[i%n] = append(streams[i%n], ev)
	}
	return names, streams
}

// applyDealtPerEvent applies event i of evs to program i%len(names) with
// per-event Apply, in trace order, so the partitions interleave event by
// event. It returns each program's decisions and final instruction count.
func applyDealtPerEvent(t *Table, names []string, evs []trace.Event) ([][]byte, []uint64) {
	out := make([][]byte, len(names))
	instr := make([]uint64, len(names))
	for i, ev := range evs {
		k := i % len(names)
		instr[k] += uint64(ev.Gap)
		out[k] = append(out[k], t.Apply(names[k], ev, instr[k]).Encode())
	}
	return out, instr
}

// TestApplyBatchMatchesApply is the batching equivalence pin: across seeds,
// batch sizes, and the number of partitions the trace is dealt over, the
// batched path must produce the byte-identical decision stream and
// identical table metrics (including transition and entry counts) as
// per-event Apply. The shards=N label names the partition count: the
// events are dealt round-robin over N programs, and the batched side
// visits the programs' batches round-robin too.
func TestApplyBatchMatchesApply(t *testing.T) {
	for _, parts := range []int{1, 4, 16} {
		for _, seed := range []uint64{1, 7, 42} {
			for _, batch := range []int{1, 13, 1024, 60_000} {
				t.Run(fmt.Sprintf("shards=%d/seed=%d/batch=%d", parts, seed, batch), func(t *testing.T) {
					names, streams := dealPrograms("prog", synthEvents(30_000, seed), parts)

					perEvent := NewTable(testParams())
					want, wantInstr := applyDealtPerEvent(perEvent, names, synthEvents(30_000, seed))

					batched := NewTable(testParams())
					got := make([][]byte, parts)
					instr := make([]uint64, parts)
					for off := 0; off < len(streams[0]); off += batch {
						for k := range names {
							if off >= len(streams[k]) {
								continue
							}
							end := min(off+batch, len(streams[k]))
							got[k], instr[k] = batched.ApplyBatch(names[k], streams[k][off:end], instr[k], got[k])
						}
					}

					for k := range names {
						if instr[k] != wantInstr[k] {
							t.Fatalf("%s: final instruction count %d, want %d", names[k], instr[k], wantInstr[k])
						}
						if len(got[k]) != len(want[k]) {
							t.Fatalf("%s: %d decisions, want %d", names[k], len(got[k]), len(want[k]))
						}
						for i := range want[k] {
							if got[k][i] != want[k][i] {
								gd, _ := DecodeDecision(got[k][i])
								wd, _ := DecodeDecision(want[k][i])
								t.Fatalf("%s event %d (branch %d): batched %v, per-event %v",
									names[k], i, streams[k][i].Branch, gd, wd)
							}
						}
					}
					if gm, wm := batched.Metrics(), perEvent.Metrics(); gm != wm {
						t.Fatalf("table metrics diverge:\nbatched:   %+v\nper-event: %+v", gm, wm)
					}
				})
			}
		}
	}
}

// TestBatchPathMatchesPolicySet pins the table's one apply path against the
// in-process oracle for every registered policy: for each partition, the
// decisions, the touched units' exported state, and their lifetime
// counters equal what one core.PolicySet (one policy instance per unit)
// computes from the same events. In the sparse case, IDs include the
// extremes, so the dense slot index is exercised, not just identity slots;
// in the window+map case one partition's first ID anchors the slot index's
// window so that some IDs resolve in the window and the rest in its map.
func TestBatchPathMatchesPolicySet(t *testing.T) {
	window := make([]trace.BranchID, 0, 24)
	for id := trace.BranchID(1000); id < 1020; id++ {
		window = append(window, id)
	}
	for _, c := range []struct {
		name     string
		ids      []trace.BranchID
		events   int
		programs int
		anchor   bool // the first event goes to ids[0]
	}{
		// The sparse case's subtests carry the bare policy name.
		{"", []trace.BranchID{0, 1, 7, 4096, 1 << 20, 1<<32 - 1, 31337, 2}, 40_000, 3, false},
		// 1000 comes first, so the window starts at 768: 1000–1019
		// land in it, and 3, 600 (below its base), 2^31 and 2^32−1 in
		// the map.
		{"window+map", append(window, 3, 600, 1<<31, 1<<32-1), 10_000, 1, true},
	} {
		evs := synthEvents(c.events, 5)
		if c.anchor {
			evs[0].Branch = 0
		}
		for i := range evs {
			evs[i].Branch = c.ids[int(evs[i].Branch)%len(c.ids)]
		}
		for _, policy := range core.PolicyNames() {
			name := policy
			if c.name != "" {
				name = c.name + "/" + policy
			}
			t.Run(name, func(t *testing.T) {
				tab, err := NewTablePolicy(testParams(), 0, policy)
				if err != nil {
					t.Fatal(err)
				}
				names, streams := dealPrograms("prog", evs, c.programs)
				for k, name := range names {
					var got []byte
					var instr uint64
					for _, b := range streamBatches(streams[k], 997) {
						got, instr = tab.ApplyBatch(name, b, instr, got)
					}
					// One single-unit oracle per unit, keyed by the client
					// ID, so lifetime counters compare one unit at a time
					// (and no oracle is sized by the largest ID).
					units := map[trace.BranchID]*core.PolicySet{}
					instr = 0
					for i, ev := range streams[k] {
						instr += uint64(ev.Gap)
						u := units[ev.Branch]
						if u == nil {
							var err error
							if u, err = core.NewPolicySet(policy, testParams()); err != nil {
								t.Fatal(err)
							}
							units[ev.Branch] = u
						}
						u.AddInstrs(uint64(ev.Gap))
						v, st, dir, live := u.OnEvent(0, ev.Taken, instr)
						if want := (Decision{Verdict: v, State: st, Dir: dir, Live: live}).Encode(); got[i] != want {
							gd, _ := DecodeDecision(got[i])
							wd, _ := DecodeDecision(want)
							t.Fatalf("%s event %d (unit %d): table %v, policy set %v", name, i, ev.Branch, gd, wd)
						}
					}
					for _, es := range tab.SnapshotEntries() {
						if es.Program != name {
							continue
						}
						u := units[es.Branch]
						if u == nil {
							t.Fatalf("%s: snapshot carries unit %d the trace never touched", name, es.Branch)
						}
						if want := u.Stats(); es.Stats != want {
							t.Fatalf("%s unit %d: counters %+v, oracle %+v", name, es.Branch, es.Stats, want)
						}
						if es.State.State != u.UnitState(0) {
							t.Fatalf("%s unit %d: state %v, oracle %v", name, es.Branch, es.State.State, u.UnitState(0))
						}
						delete(units, es.Branch)
					}
					if len(units) != 0 {
						t.Fatalf("%s: %d touched units missing from the snapshot", name, len(units))
					}
				}
			})
		}
	}
}

// TestApplyBatchTightLoop exercises the last-slot cache: long runs of a
// single branch must still match per-event Apply exactly.
func TestApplyBatchTightLoop(t *testing.T) {
	evs := make([]trace.Event, 0, 40_000)
	state := uint64(3)
	for len(evs) < cap(evs) {
		state = state*6364136223846793005 + 1442695040888963407
		id := trace.BranchID(state >> 58) // few distinct branches
		burst := 16 + int(state>>32&127)  // long single-branch runs
		for k := 0; k < burst && len(evs) < cap(evs); k++ {
			evs = append(evs, trace.Event{Branch: id, Taken: state>>(k&31)&1 == 0, Gap: uint32(1 + k&7)})
		}
	}

	perEvent := NewTable(testParams())
	var instrA uint64
	want := applyAll(perEvent, "loop", evs, &instrA)

	batched := NewTable(testParams())
	var instrB uint64
	got := applyAllBatched(batched, "loop", evs, &instrB, 4096)

	if string(got) != string(want) {
		t.Fatal("tight-loop decision stream differs between batched and per-event paths")
	}
	if batched.Metrics() != perEvent.Metrics() {
		t.Fatal("tight-loop table metrics differ between batched and per-event paths")
	}
}

// TestApplyBatchEmpty checks the trivial cases: no events, and a batch that
// only advances dst.
func TestApplyBatchEmpty(t *testing.T) {
	tab := NewTable(testParams())
	dst, instr := tab.ApplyBatch("p", nil, 17, nil)
	if len(dst) != 0 || instr != 17 {
		t.Fatalf("empty batch: %d decisions, instr %d", len(dst), instr)
	}
	dst, instr = tab.ApplyBatch("p", []trace.Event{{Branch: 1, Taken: true, Gap: 5}}, instr, dst)
	if len(dst) != 1 || instr != 22 {
		t.Fatalf("one-event batch: %d decisions, instr %d", len(dst), instr)
	}
}

// TestApplyBatchConcurrentWithReaders drives concurrent ApplyBatch calls for
// distinct programs while Decide and Metrics readers spin (the race detector
// validates the RWMutex discipline), then asserts every program's decision
// stream and the aggregate counters match a serial replay.
func TestApplyBatchConcurrentWithReaders(t *testing.T) {
	const (
		programs = 8
		events   = 20_000
		batch    = 777
	)
	tab := NewTable(testParams())

	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				program := fmt.Sprintf("prog-%d", i%programs)
				tab.Decide(program, trace.BranchID(i%24))
				if i%16 == 0 {
					tab.Metrics()
				}
			}
		}(r)
	}

	streams := make([][]trace.Event, programs)
	decisions := make([][]byte, programs)
	var writers sync.WaitGroup
	for p := 0; p < programs; p++ {
		streams[p] = synthEvents(events, uint64(p)*1315423911+5)
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			var instr uint64
			decisions[p] = applyAllBatched(tab, fmt.Sprintf("prog-%d", p), streams[p], &instr, batch)
		}(p)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()

	// Serial replay: a fresh table fed the same per-program streams must
	// produce the same decision bytes and the same aggregate totals.
	serial := NewTable(testParams())
	for p := 0; p < programs; p++ {
		var instr uint64
		want := applyAll(serial, fmt.Sprintf("prog-%d", p), streams[p], &instr)
		if string(decisions[p]) != string(want) {
			t.Fatalf("program %d: concurrent batched decisions diverge from serial replay", p)
		}
	}
	serialTotal, concurrentTotal := serial.Metrics(), tab.Metrics()
	if serialTotal != concurrentTotal {
		t.Fatalf("aggregate metrics: concurrent %+v, serial %+v", concurrentTotal, serialTotal)
	}
	if concurrentTotal.Events != programs*events {
		t.Fatalf("total events %d, want %d", concurrentTotal.Events, programs*events)
	}
}
