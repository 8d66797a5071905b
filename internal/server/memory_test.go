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
// uint32s grow the heap by at most 160 B per unit they touch, never by the
// largest ID. A store indexed by raw ID would need a page directory
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
	perUnit := float64(after-before) / float64(units)
	t.Logf("%d units: %.0f B/unit", units, perUnit)
	if perUnit > 160 {
		t.Fatalf("heap grew %.0f B per touched unit, want at most 160", perUnit)
	}
	runtime.KeepAlive(tab)
}

// denseWarmup applies one event to each of n contiguous unit IDs in
// batches, the way a table warms up on a new program, and returns the heap
// it retains and the bytes it allocated along the way. The IDs start at
// 2^31, as a client's own numbering may: the units are dense, the IDs are
// not small.
func denseWarmup(t *testing.T, policy string, n int) (retained, allocated uint64) {
	t.Helper()
	const (
		batch = 1024
		base  = 1 << 31
	)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Branch: trace.BranchID(base + i), Taken: i%3 != 0, Gap: uint32(1 + i%7)}
	}
	dst := make([]byte, 0, batch)

	live0, total0 := heapAfterGC()
	tab := newPolicyTable(t, policy)
	var instr uint64
	for off := 0; off < n; off += batch {
		dst, instr = tab.ApplyBatch("warm", evs[off:min(off+batch, n)], instr, dst[:0])
	}
	live1, total1 := heapAfterGC()
	if got := tab.Metrics().Entries; got != uint64(n) {
		t.Fatalf("%d resident units, want %d", got, n)
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(evs)
	return live1 - live0, total1 - total0
}

// TestDenseWarmupRetainsLittlePerUnit pins the resident cost of a unit, for
// every policy: a 100k-unit warm-up retains at most 128 B per unit, policy
// state, lifetime counters and slot index included. The page entries take
// 64–96 B of that; a boxed per-unit policy or a separately paged copy of
// every counter does not fit.
func TestDenseWarmupRetainsLittlePerUnit(t *testing.T) {
	const n = 100_000
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			retained, _ := denseWarmup(t, policy, n)
			perUnit := float64(retained) / n
			t.Logf("retained %.0f B/unit", perUnit)
			if perUnit > 128 {
				t.Fatalf("warm-up retained %.0f B per unit, want at most 128", perUnit)
			}
		})
	}
}

// TestDenseWarmupAllocatesWhatItRetains pins paged growth: the same
// warm-up allocates at most 1.25 times the heap it retains. Storage grown
// by copying leaves every outgrown array behind as garbage, which is what
// holds a warming daemon's GC goal, and so its RSS, far above its live
// heap.
func TestDenseWarmupAllocatesWhatItRetains(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			retained, allocated := denseWarmup(t, policy, 100_000)
			ratio := float64(allocated) / float64(retained)
			t.Logf("allocated %d B, retained %d B: %.3fx", allocated, retained, ratio)
			if ratio > 1.25 {
				t.Fatalf("warm-up allocated %.2fx what it retains, want at most 1.25x", ratio)
			}
		})
	}
}
