package core

import (
	"math"

	"reactivespec/internal/trace"
)

// probWeightEngine estimates each unit's outcome probability with an
// exponential moving average and deploys speculation while the estimate's
// confidence stays inside a hysteresis band — a probabilistic-dataflow-style
// weighting (after Di Pierro & Wiklicky: program behavior as a probability
// distribution rather than a sampled window) in place of the paper's
// windowed monitor.
//
// Mechanics: est tracks P(outcome=true) as an EWMA with a fixed power-of-two
// step (probAlpha), seeded at 0.5. The first MonitorPeriod events only warm
// the estimate. After warmup, the unit deploys the likelier direction when
// its confidence max(est, 1-est) reaches SelectThreshold, and undeploys when
// confidence falls below EvictBias — both through the same
// optimization-latency deployment machinery as the reactive FSM, so deployed
// code goes live (and lame-ducks out) OptLatency instructions later.
// MaxOptimizations retires oscillating units exactly like the paper's model.
//
// The policy is a pure function of the event sequence (the EWMA uses a fixed
// step, never a clock or RNG), so replay and replication reproduce it
// bit-exactly.
type probWeightEngine struct {
	params Params
	units  Pages[probWeightUnit]
	instrs uint64 // accounted by AddInstrs, outside every unit
}

// probWeightUnit is one unit's state: 72 bytes, counters included.
type probWeightUnit struct {
	unit

	est       estimate
	warm      uint32 // events consumed of the warmup window (≤ MonitorPeriod)
	evictions uint32
}

// estimate is a unit's EWMA estimate of P(outcome=true): the float64 bits
// XORed with those of the 0.5 seed, so a zeroed page entry holds a fresh
// unit's estimate exactly.
type estimate uint64

// seedBits is math.Float64bits(0.5).
const seedBits = 0x3fe0000000000000

func (e estimate) get() float64 { return math.Float64frombits(uint64(e) ^ seedBits) }

func newEstimate(v float64) estimate { return estimate(math.Float64bits(v) ^ seedBits) }

// probAlpha is the EWMA step. A power of two keeps the float arithmetic
// exactly reproducible across platforms (every operation is an IEEE-exact
// multiply-add on well-scaled values).
const probAlpha = 1.0 / 32

func (e *probWeightEngine) unitFor(id trace.BranchID) *probWeightUnit {
	if u := e.units.Get(uint32(id)); u != nil {
		return u
	}
	return e.units.At(uint32(id))
}

func (e *probWeightEngine) Step(id trace.BranchID, outcome bool, gap, instr uint64) (Verdict, State, bool, bool) {
	u := e.unitFor(id)
	verdict := u.score(outcome, gap, instr)

	x := 0.0
	if outcome {
		x = 1.0
	}
	est := u.est.get()
	est += probAlpha * (x - est)
	u.est = newEstimate(est)

	if u.state == Retired {
		return verdict, u.state, u.liveDir, u.live()
	}
	if uint64(u.warm) < e.params.MonitorPeriod {
		u.warm++
		return verdict, u.state, u.liveDir, u.live()
	}

	dir := est >= 0.5
	conf := est
	if !dir {
		conf = 1 - est
	}
	switch u.state {
	case Monitor:
		if conf >= e.params.SelectThreshold {
			if u.optCount >= e.params.MaxOptimizations {
				u.state = Retired
				break
			}
			u.optCount++
			u.direction = dir
			u.deploy(dir, instr+e.params.OptLatency)
			u.state = Biased
		}
	case Biased:
		if e.params.NoEviction {
			break
		}
		// Like the reactive FSM, outcomes only count against the deployed
		// code once it is actually live in the classified direction.
		if !u.live() || u.liveDir != u.direction {
			break
		}
		if dir != u.direction || conf < e.params.EvictBias {
			u.evictions++
			u.undeploy(instr + e.params.OptLatency)
			u.state = Monitor
		}
	}
	return verdict, u.state, u.liveDir, u.live()
}

func (e *probWeightEngine) Decide(id trace.BranchID) (State, bool, bool) {
	if u := e.units.Get(uint32(id)); u != nil {
		return u.state, u.liveDir, u.live()
	}
	return Monitor, false, false
}

func (e *probWeightEngine) AddInstrs(n uint64) { e.instrs += n }
func (e *probWeightEngine) Stats() Stats {
	return sumStats(&e.units, e.instrs, (*probWeightUnit).counters)
}

func (e *probWeightEngine) Export(id trace.BranchID) (BranchState, Stats, bool) {
	u := e.units.Get(uint32(id))
	if u == nil || u.untouched() {
		return BranchState{}, Stats{}, false
	}
	return u.export(), u.counters(), true
}

// counters derives the unit's lifetime counters.
func (u *probWeightUnit) counters() Stats { return u.stats(uint64(u.evictions)) }

func (u *probWeightUnit) export() BranchState {
	st := BranchState{
		MonSeen:   uint64(u.warm),
		OptCount:  u.optCount,
		Evictions: u.evictions,
		ProbEst:   u.est.get(),
	}
	u.exportTo(&st)
	return st
}

func (e *probWeightEngine) Import(id trace.BranchID, st BranchState, s Stats) error {
	var u probWeightUnit
	if err := u.restore(st, s, st.OptCount, uint64(st.Evictions)); err != nil {
		return err
	}
	u.warm = uint32(st.MonSeen)
	u.evictions = st.Evictions
	u.est = newEstimate(st.ProbEst)
	if err := exact(PolicyProbWeight, u.export(), st); err != nil {
		return err
	}
	*e.unitFor(id) = u
	return nil
}
