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
	return c.export(b), b.counters(), true
}

// counters derives the branch's lifetime counters.
func (b *branch) counters() Stats { return b.stats(uint64(b.evictions())) }

// export unpacks the branch's window words by its state and derives the
// fields no state keeps (see branch).
func (c *Controller) export(b *branch) BranchState {
	p := &c.params
	st := BranchState{Counter: c.counter(b), OptCount: b.optCount, Evictions: b.evictions()}
	switch b.state {
	case Monitor:
		st.MonSeen, st.MonExecs, st.MonTaken = uint64(b.count), uint64(b.sampled), uint64(b.taken)
	case Unbiased:
		st.WaitLeft = uint64(b.count)
	}
	if p.EvictBySampling {
		switch {
		case b.state == Biased:
			st.CyclePos, st.SmpExecs = uint64(b.count), uint64(b.sampled)
		case b.optCount > 0:
			st.CyclePos, st.SmpExecs = p.SampleLen, p.SampleLen
		}
		st.SmpWrong = uint64(b.wrong)
	}
	b.exportTo(&st)
	return st
}

// Import overwrites the branch's state and lifetime counters with a
// previously exported snapshot, or refuses with a *StateError what a branch
// cannot hold exactly (see Engine.Import): besides a window field wider
// than 32 bits or a field the policy does not keep, any field the branch
// derives must hold its derived value. The controller's aggregate Stats
// follow, since they are the sum over its branches.
func (c *Controller) Import(id trace.BranchID, st BranchState, s Stats) error {
	var b branch
	if err := b.restore(st, s, st.OptCount, uint64(st.Evictions)); err != nil {
		return err
	}
	if st.State == Biased && st.OptCount == 0 {
		return &StateError{Field: "OptCount", Reason: "a biased branch has been selected at least once"}
	}
	switch st.State {
	case Monitor:
		b.count, b.sampled, b.taken = uint32(st.MonSeen), uint32(st.MonExecs), uint32(st.MonTaken)
	case Biased:
		b.count = st.Counter
		if c.params.EvictBySampling {
			b.count, b.sampled = uint32(st.CyclePos), uint32(st.SmpExecs)
		}
	case Unbiased:
		b.count = uint32(st.WaitLeft)
	}
	if c.params.EvictBySampling {
		b.wrong = uint32(st.SmpWrong)
	}
	if err := exact(PolicyReactive, c.export(&b), st); err != nil {
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
