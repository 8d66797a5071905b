package server

import (
	"runtime"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// heapAfterGC returns the live heap and cumulative allocation after a full
// collection.
func heapAfterGC() (live, total uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.TotalAlloc
}

// newPolicyTable returns an empty table running policy.
func newPolicyTable(t *testing.T, policy string) *Table {
	t.Helper()
	tab, err := NewTablePolicy(testParams(), 0, policy)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestHostileIDsCostUnitsTouched pins the slot index against hostile unit
// IDs, for every policy: frames carrying IDs 0, 2^32-1 and 10,000 random
// uint32s grow the heap by at most the policy's page entry plus 21 B per
// unit they touch, never by the largest ID. The IDs fall outside the
// index's window, so each costs a map entry: 14 B per unit measured (86,
// 78 and 86 B per reactive, selftrain and probweight unit), and 21 B is
// 1.5 times that. A store indexed by raw ID would need a page directory
// spanning 2^32 units.
func TestHostileIDsCostUnitsTouched(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) { testHostileIDs(t, policy) })
	}
}

func testHostileIDs(t *testing.T, policy string) {
	ids := []trace.BranchID{0, 1<<32 - 1}
	x := uint64(0x2545f4914f6cdd1d)
	for len(ids) < 10_002 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ids = append(ids, trace.BranchID(x))
	}
	var frames [][]byte
	for off := 0; off < len(ids); off += 500 {
		evs := make([]trace.Event, 0, 500)
		for _, id := range ids[off:min(off+500, len(ids))] {
			evs = append(evs, trace.Event{Branch: id, Taken: id&1 == 0, Gap: 3})
		}
		frames = append(frames, trace.EncodeFrameAppend(nil, evs))
	}
	dst := make([]byte, 0, 500)

	before, _ := heapAfterGC()
	tab := newPolicyTable(t, policy)
	var instr uint64
	for _, f := range frames {
		dst, instr = tab.ApplyFrame("hostile", f, instr, dst[:0])
	}
	after, _ := heapAfterGC()
	runtime.KeepAlive(frames)

	units := tab.Metrics().Entries
	if units != uint64(len(ids)) {
		t.Fatalf("%d resident units, want %d", units, len(ids))
	}
	perUnit, limit := float64(after-before)/float64(units), entrySize(t, policy)+21
	t.Logf("%d units: %.0f B/unit", units, perUnit)
	if perUnit > limit {
		t.Fatalf("heap grew %.0f B per touched unit, want at most %.0f", perUnit, limit)
	}
	runtime.KeepAlive(tab)
}

// pageEntry is each policy's page entry in bytes: its unit state and
// lifetime counters (core's TestUnitSizes pins these sizes).
var pageEntry = map[string]float64{
	core.PolicyReactive:   72,
	core.PolicySelfTrain:  64,
	core.PolicyProbWeight: 72,
}

// entrySize returns policy's page entry size, failing the test for a
// policy this file does not know.
func entrySize(t *testing.T, policy string) float64 {
	t.Helper()
	b, ok := pageEntry[policy]
	if !ok {
		t.Fatalf("no page entry size recorded for policy %q", policy)
	}
	return b
}

// warmup applies one event to each of ids in batches, the way a table
// warms up on a new program, and returns the heap it retains and the bytes
// it allocated along the way.
func warmup(t *testing.T, policy string, ids []trace.BranchID) (retained, allocated uint64) {
	t.Helper()
	const batch = 1024
	evs := make([]trace.Event, len(ids))
	for i, id := range ids {
		evs[i] = trace.Event{Branch: id, Taken: i%3 != 0, Gap: uint32(1 + i%7)}
	}
	dst := make([]byte, 0, batch)

	live0, total0 := heapAfterGC()
	tab := newPolicyTable(t, policy)
	var instr uint64
	for off := 0; off < len(evs); off += batch {
		dst, instr = tab.ApplyBatch("warm", evs[off:min(off+batch, len(evs))], instr, dst[:0])
	}
	live1, total1 := heapAfterGC()
	if got := tab.Metrics().Entries; got != uint64(len(ids)) {
		t.Fatalf("%d resident units, want %d", got, len(ids))
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(evs)
	return live1 - live0, total1 - total0
}

// denseIDs returns n contiguous unit IDs from base.
func denseIDs(base uint32, n int) []trace.BranchID {
	ids := make([]trace.BranchID, n)
	for i := range ids {
		ids[i] = trace.BranchID(base + uint32(i))
	}
	return ids
}

// denseBases are the warm-up pins' first IDs: 2^31, as a client's own
// numbering may start (the units are dense, the IDs are not small), named
// by the bare policy; and zero.
var denseBases = []struct {
	suffix string
	base   uint32
}{{"", 1 << 31}, {"/from0", 0}}

// TestDenseWarmupRetainsLittlePerUnit pins the resident cost of a unit, for
// every policy and from either base: a 100k-unit dense warm-up retains at
// most the policy's page entry plus 8 B per unit, lifetime counters and
// slot index included. The slot index's window costs 4 B per unit; a
// hashed index (a map costs 12 or more) or a boxed per-unit policy does not
// fit.
func TestDenseWarmupRetainsLittlePerUnit(t *testing.T) {
	const n = 100_000
	for _, policy := range core.PolicyNames() {
		for _, b := range denseBases {
			t.Run(policy+b.suffix, func(t *testing.T) {
				retained, _ := warmup(t, policy, denseIDs(b.base, n))
				perUnit, limit := float64(retained)/n, entrySize(t, policy)+8
				t.Logf("retained %.1f B/unit", perUnit)
				if perUnit > limit {
					t.Fatalf("warm-up retained %.1f B per unit, want at most %.0f", perUnit, limit)
				}
			})
		}
	}
}

// TestDenseWarmupAllocatesWhatItRetains pins paged growth: the same
// warm-ups allocate at most 1.05 times the heap they retain. Storage grown
// by copying, a map included, leaves every outgrown array behind as
// garbage, which is what holds a warming daemon's GC goal, and so its RSS,
// far above its live heap.
func TestDenseWarmupAllocatesWhatItRetains(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		for _, b := range denseBases {
			t.Run(policy+b.suffix, func(t *testing.T) {
				retained, allocated := warmup(t, policy, denseIDs(b.base, 100_000))
				ratio := float64(allocated) / float64(retained)
				t.Logf("allocated %d B, retained %d B: %.3fx", allocated, retained, ratio)
				if ratio > 1.05 {
					t.Fatalf("warm-up allocated %.3fx what it retains, want at most 1.05x", ratio)
				}
			})
		}
	}
}

// windowEdgeIDs returns n IDs from 2^31 on, each the largest the slot
// index's window admits when it arrives: the IDs that spread the window
// thinnest.
func windowEdgeIDs(n int) []trace.BranchID {
	var x slotIndex
	ids := make([]trace.BranchID, n)
	ids[0] = 1<<31 + core.PageUnits - 1
	x.add(ids[0])
	for i := 1; i < n; i++ {
		ids[i] = windowEdge(&x)
		x.add(ids[i])
	}
	return ids
}

// TestWindowEdgeIDsRetainLittlePerUnit pins the slot index's window bound,
// for every policy: 100k IDs, each at the window's growing edge when it
// arrives, fill the window at half density and still retain at most the
// policy's page entry plus 16 B per unit.
func TestWindowEdgeIDsRetainLittlePerUnit(t *testing.T) {
	const n = 100_000
	ids := windowEdgeIDs(n)
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			retained, _ := warmup(t, policy, ids)
			perUnit, limit := float64(retained)/n, entrySize(t, policy)+16
			t.Logf("retained %.1f B/unit", perUnit)
			if perUnit > limit {
				t.Fatalf("window-edge warm-up retained %.1f B per unit, want at most %.0f", perUnit, limit)
			}
		})
	}
}
