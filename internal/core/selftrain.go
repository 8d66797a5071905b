package core

import "reactivespec/internal/trace"

// selfTrainEngine is the self-training profile applied online: each unit
// observes its first MonitorPeriod events, then decides once — deploy the
// majority direction permanently when its bias clears SelectThreshold,
// otherwise never speculate. There is no eviction and no revisit; both
// outcomes are terminal.
//
// This is the open-loop baseline the paper's Figure 5 plots as
// "self-train-99": it captures initial behavior perfectly and reacts to
// nothing, which is exactly the contrast the reactive arcs exist to fix.
type selfTrainEngine struct {
	params Params
	units  Pages[selfTrainUnit]
	instrs uint64 // accounted by AddInstrs, outside every unit
}

// selfTrainUnit is one unit's state: 64 bytes, counters included.
type selfTrainUnit struct {
	unit

	// The training window, bounded by MonitorPeriod.
	monSeen  uint32
	monTaken uint32
}

func (e *selfTrainEngine) unitFor(id trace.BranchID) *selfTrainUnit {
	if u := e.units.Get(uint32(id)); u != nil {
		return u
	}
	return e.units.At(uint32(id))
}

func (e *selfTrainEngine) Step(id trace.BranchID, outcome bool, gap, instr uint64) (Verdict, State, bool, bool) {
	u := e.unitFor(id)
	verdict := u.score(outcome, gap, instr)
	if u.state == Monitor {
		u.monSeen++
		if outcome {
			u.monTaken++
		}
		if uint64(u.monSeen) >= e.params.MonitorPeriod {
			e.classify(u, instr)
		}
	}
	return verdict, u.state, u.liveDir, u.live()
}

// classify makes the one-shot training decision at the end of the window.
func (e *selfTrainEngine) classify(u *selfTrainUnit, instr uint64) {
	seen, taken := uint64(u.monSeen), uint64(u.monTaken)
	majTaken := taken*2 >= seen
	maj := taken
	if !majTaken {
		maj = seen - taken
	}
	if float64(maj) >= e.params.SelectThreshold*float64(seen) {
		u.optCount = 1
		u.direction = majTaken
		u.deploy(majTaken, instr+e.params.OptLatency)
		u.state = Biased
		return
	}
	u.state = Unbiased
}

func (e *selfTrainEngine) Decide(id trace.BranchID) (State, bool, bool) {
	if u := e.units.Get(uint32(id)); u != nil {
		return u.state, u.liveDir, u.live()
	}
	return Monitor, false, false
}

func (e *selfTrainEngine) AddInstrs(n uint64) { e.instrs += n }
func (e *selfTrainEngine) Stats() Stats {
	return sumStats(&e.units, e.instrs, (*selfTrainUnit).counters)
}

// selections is a unit's selection count. The policy selects at most once
// and its snapshot entries never carried OptCount, so EverBiased records it.
func selections(everBiased bool) uint32 {
	if everBiased {
		return 1
	}
	return 0
}

func (e *selfTrainEngine) Export(id trace.BranchID) (BranchState, Stats, bool) {
	u := e.units.Get(uint32(id))
	if u == nil || u.untouched() {
		return BranchState{}, Stats{}, false
	}
	return u.export(), u.counters(), true
}

// counters derives the unit's lifetime counters.
func (u *selfTrainUnit) counters() Stats { return u.stats(0) }

func (u *selfTrainUnit) export() BranchState {
	st := BranchState{
		MonSeen:  uint64(u.monSeen),
		MonTaken: uint64(u.monTaken),
	}
	u.exportTo(&st)
	return st
}

func (e *selfTrainEngine) Import(id trace.BranchID, st BranchState, s Stats) error {
	var u selfTrainUnit
	if err := u.restore(st, s, selections(st.EverBiased), 0); err != nil {
		return err
	}
	u.monSeen, u.monTaken = uint32(st.MonSeen), uint32(st.MonTaken)
	if err := exact(PolicySelfTrain, u.export(), st); err != nil {
		return err
	}
	*e.unitFor(id) = u
	return nil
}
