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

	// Monitor-state window.
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

// ExportBranch returns the branch's full state and whether the branch has
// been touched (executed at least once or moved out of the default state).
// Untouched branches need no snapshot entry: a fresh controller already
// behaves identically for them.
func (c *Controller) ExportBranch(id trace.BranchID) (BranchState, bool) {
	b := c.branches.Get(uint32(id))
	if b == nil || b.execs == 0 && b.state == Monitor {
		return BranchState{}, false
	}
	return BranchState{
		State:      b.state,
		LiveDir:    b.dep.liveDir,
		LiveUntil:  b.dep.liveUntil,
		NextDir:    b.dep.nextDir,
		NextAt:     b.dep.nextAt,
		MonSeen:    b.monSeen,
		MonExecs:   b.monExecs,
		MonTaken:   b.monTaken,
		Direction:  b.direction,
		Counter:    b.counter,
		CyclePos:   b.cyclePos,
		SmpExecs:   b.smpExecs,
		SmpWrong:   b.smpWrong,
		WaitLeft:   b.waitLeft,
		Execs:      b.execs,
		OptCount:   b.optCount,
		Evictions:  b.evictions,
		EverBiased: b.everBiased,
	}, true
}

// ImportBranch overwrites the branch's state with a previously exported
// snapshot. The controller's aggregate Stats are not touched; restore them
// separately with SetStats.
func (c *Controller) ImportBranch(id trace.BranchID, st BranchState) {
	b := c.branchFor(id)
	b.state = st.State
	b.dep = deployment{
		liveDir:   st.LiveDir,
		liveUntil: st.LiveUntil,
		nextDir:   st.NextDir,
		nextAt:    st.NextAt,
	}
	b.monSeen, b.monExecs, b.monTaken = st.MonSeen, st.MonExecs, st.MonTaken
	b.direction = st.Direction
	b.counter = st.Counter
	b.cyclePos = st.CyclePos
	b.smpExecs, b.smpWrong = st.SmpExecs, st.SmpWrong
	b.waitLeft = st.WaitLeft
	b.execs = st.Execs
	b.optCount = st.OptCount
	b.evictions = st.Evictions
	b.everBiased = st.EverBiased
}

// TouchedBranches returns the IDs of every branch ExportBranch would report
// as touched, in increasing order.
func (c *Controller) TouchedBranches() []trace.BranchID {
	var ids []trace.BranchID
	c.branches.Each(func(i uint32, b *branch) {
		if b.execs != 0 || b.state != Monitor {
			ids = append(ids, trace.BranchID(i))
		}
	})
	return ids
}

// SetStats overwrites the aggregate counters (snapshot restore).
func (c *Controller) SetStats(s Stats) { c.stats = s }
