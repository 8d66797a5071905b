package core

import "reactivespec/internal/trace"

// BranchState is the complete serializable state of one tracked branch:
// classification, deployment lifecycle, the monitor/sampling windows, and the
// lifetime counters. Exporting and re-importing a BranchState reproduces the
// branch's future decisions exactly, which is what the serving layer's
// snapshot/restore machinery (internal/server) relies on.
//
// All fields are exported so the struct round-trips through encoding/gob and
// encoding/json unchanged.
type BranchState struct {
	// State is the classification state (Figure 4b).
	State State

	// Deployment lifecycle (the optimization-latency machinery).
	LiveDir   bool
	LiveUntil uint64
	NextDir   bool
	NextAt    uint64

	// Monitor-state window. Like CyclePos, SmpExecs, SmpWrong and
	// WaitLeft, each is bounded by a Params period, so engines hold it in
	// 32 bits and refuse to import a larger value.
	MonSeen  uint64
	MonExecs uint64
	MonTaken uint64

	// Biased-state bookkeeping.
	Direction bool
	Counter   uint32
	CyclePos  uint64
	SmpExecs  uint64
	SmpWrong  uint64

	// Unbiased-state bookkeeping.
	WaitLeft uint64

	// Lifecycle statistics.
	Execs      uint64
	OptCount   uint32
	Evictions  uint32
	EverBiased bool

	// ProbEst is the probweight policy's EWMA estimate. Unused (zero) for
	// the other policies; gob zero-fills it when decoding snapshots written
	// before the field existed.
	ProbEst float64
}

// Export returns the branch's full state and lifetime counters, and whether
// the branch has been touched (executed at least once or moved out of the
// default state). Untouched branches need no snapshot entry: a fresh
// controller already behaves identically for them.
func (c *Controller) Export(id trace.BranchID) (BranchState, Stats, bool) {
	b := c.branches.Get(uint32(id))
	if b == nil || b.untouched() {
		return BranchState{}, Stats{}, false
	}
	return b.export(), b.counters(), true
}

// counters derives the branch's lifetime counters.
func (b *branch) counters() Stats { return b.stats(uint64(b.optCount), uint64(b.evictions)) }

func (b *branch) export() BranchState {
	st := BranchState{
		MonSeen:   uint64(b.monSeen),
		MonExecs:  uint64(b.monExecs),
		MonTaken:  uint64(b.monTaken),
		Counter:   b.counter,
		CyclePos:  uint64(b.cyclePos),
		SmpExecs:  uint64(b.smpExecs),
		SmpWrong:  uint64(b.smpWrong),
		WaitLeft:  uint64(b.waitLeft),
		OptCount:  b.optCount,
		Evictions: b.evictions,
	}
	b.exportTo(&st)
	return st
}

// Import overwrites the branch's state and lifetime counters with a
// previously exported snapshot, or refuses with a *StateError what a branch
// cannot hold exactly (see Engine.Import). The controller's aggregate Stats
// follow, since they are the sum over its branches.
func (c *Controller) Import(id trace.BranchID, st BranchState, s Stats) error {
	var b branch
	if err := b.restore(st, s, uint64(st.OptCount), uint64(st.Evictions)); err != nil {
		return err
	}
	b.monSeen, b.monExecs, b.monTaken = uint32(st.MonSeen), uint32(st.MonExecs), uint32(st.MonTaken)
	b.counter = st.Counter
	b.cyclePos = uint32(st.CyclePos)
	b.smpExecs, b.smpWrong = uint32(st.SmpExecs), uint32(st.SmpWrong)
	b.waitLeft = uint32(st.WaitLeft)
	b.optCount = st.OptCount
	b.evictions = st.Evictions
	if err := exact(PolicyReactive, b.export(), st); err != nil {
		return err
	}
	*c.branchFor(id) = b
	return nil
}

// TouchedBranches returns the IDs of every branch Export would report as
// touched, in increasing order.
func (c *Controller) TouchedBranches() []trace.BranchID {
	var ids []trace.BranchID
	c.branches.Each(func(i uint32, b *branch) {
		if !b.untouched() {
			ids = append(ids, trace.BranchID(i))
		}
	})
	return ids
}
