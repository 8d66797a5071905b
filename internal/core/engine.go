package core

import (
	"fmt"
	"math"
	"reflect"

	"reactivespec/internal/trace"
)

// Engine runs one speculation-control policy over many units at once. Each
// unit's state lives by value in fixed-size pages indexed by unit ID
// (Pages), sized to what the policy's model needs, and the unit's page entry
// is the only place its events are counted; the parameters are held once
// per engine. Controller is the reactive engine; NewEngine builds any
// registered policy's.
//
// Like Controller, an engine indexes units densely from zero: the serving
// table maps client IDs onto dense slots before they reach one.
//
// An Engine is not safe for concurrent use; drive it from one goroutine.
type Engine interface {
	// Step observes one dynamic event for unit id at global instruction
	// count instr, gap instructions after the previous event, and returns
	// the verdict together with the unit's resulting classification state
	// and live deployment — everything a serving decision encodes. The gap
	// is accounted to the unit.
	Step(id trace.BranchID, outcome bool, gap, instr uint64) (v Verdict, st State, dir, live bool)
	// Decide returns the unit's classification state and live deployment
	// without observing an event (Monitor and not live for a unit never
	// seen).
	Decide(id trace.BranchID) (st State, dir, live bool)
	// AddInstrs accounts dynamic instructions to the engine rather than to
	// a unit (the gaps between events, for callers that use Step with a
	// zero gap).
	AddInstrs(n uint64)
	// Stats returns the aggregate counters: the sum of every unit's
	// lifetime counters (Export) plus the instructions AddInstrs accounted.
	// It walks the pages, so it costs O(units).
	Stats() Stats
	// Export returns the unit's full serializable state, its lifetime
	// counters, and whether it has been touched (executed at least once
	// or moved out of the default state). Only Instrs, Correct and Misspec
	// are stored per unit; the rest of the counters derive from the state
	// (see Stats).
	Export(id trace.BranchID) (BranchState, Stats, bool)
	// Import overwrites the unit's state and lifetime counters. It refuses,
	// with a *StateError and without touching the unit, state the policy
	// cannot hold exactly: a field it does not keep, a field it derives
	// from the rest of the state whose value differs from the derivation,
	// a window field wider than 32 bits, or counters that contradict the
	// state.
	Import(id trace.BranchID, st BranchState, s Stats) error
}

// NewEngine builds the multi-unit engine of a registered policy. The empty
// name means PolicyReactive. It fails on an unknown name or on parameters
// Params.Validate rejects.
func NewEngine(name string, params Params) (Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "", PolicyReactive:
		return New(params), nil
	case PolicySelfTrain:
		return &selfTrainEngine{params: params}, nil
	case PolicyProbWeight:
		return &probWeightEngine{params: params}, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q (want one of %v)", name, PolicyNames())
}

// unit is the state every policy keeps per unit: its classification, the
// deployment of its speculative code, its execution count, and the lifetime
// counters its state does not determine. A unit's remaining counters —
// NotSpec, Selections, Evictions, Retirals — are derived from its state when
// it is exported (unit.stats), so they cost no bytes in the pages. The
// fields sit flat, widest first, so the unit packs into 56 bytes with no
// padding, and each policy's page entry embeds it as its first field.
type unit struct {
	// The deployment lifecycle of the speculative code generated for the
	// unit, independent of its classification state: selections become
	// live OptLatency instructions later, and evicted code stays live
	// ("lame duck") for OptLatency instructions until the repaired code
	// is deployed.
	liveUntil uint64 // 0 = not live; math.MaxUint64 = live indefinitely
	nextAt    uint64 // 0 = nothing pending

	execs   uint64
	instrs  uint64
	correct uint64
	misspec uint64

	// optCount counts entries into the biased state (Stats.Selections):
	// a unit has ever been biased exactly when it is non-zero.
	optCount uint32

	liveDir   bool
	nextDir   bool
	state     State
	direction bool // the direction selected on entering the biased state
}

// tick advances the deployment to instant instr.
func (u *unit) tick(instr uint64) {
	if u.liveUntil != 0 && instr >= u.liveUntil {
		u.liveUntil = 0
	}
	if u.nextAt != 0 && instr >= u.nextAt {
		u.liveDir = u.nextDir
		u.liveUntil = math.MaxUint64
		u.nextAt = 0
	}
}

// live reports whether speculative code is deployed (in direction liveDir).
func (u *unit) live() bool { return u.liveUntil != 0 }

// deploy schedules speculation in direction dir to become live at instant at.
func (u *unit) deploy(dir bool, at uint64) {
	if at == 0 {
		at = 1
	}
	u.nextDir = dir
	u.nextAt = at
}

// undeploy schedules the currently live speculation to be removed at instant
// at.
func (u *unit) undeploy(at uint64) {
	if at == 0 {
		at = 1
	}
	if u.liveUntil != 0 && at < u.liveUntil {
		u.liveUntil = at
	}
	u.nextAt = 0
}

// score counts one event gap instructions after the previous one in the
// unit, ticks the deployment to instr and returns outcome's verdict against
// the speculation live at that instant.
func (u *unit) score(outcome bool, gap, instr uint64) Verdict {
	u.execs++
	u.instrs += gap
	u.tick(instr)
	switch {
	case !u.live():
		return NotSpeculated
	case outcome == u.liveDir:
		u.correct++
		return Correct
	default:
		u.misspec++
		return Misspec
	}
}

// untouched reports whether the unit needs no snapshot entry: a fresh
// engine already behaves identically for it.
func (u *unit) untouched() bool { return u.execs == 0 && u.state == Monitor }

// exportTo fills the fields of st that unit holds, EverBiased derived from
// the selection count. OptCount is the policy's to export: not every
// policy's snapshot entries carry it.
func (u *unit) exportTo(st *BranchState) {
	st.State = u.state
	st.LiveDir, st.LiveUntil = u.liveDir, u.liveUntil
	st.NextDir, st.NextAt = u.nextDir, u.nextAt
	st.Direction = u.direction
	st.Execs = u.execs
	st.EverBiased = u.optCount > 0
}

// stats derives the unit's lifetime counters. Every event counts one exec
// and exactly one verdict, so Events = Execs and NotSpec = Execs − Correct −
// Misspec; Selections is the selection count, evictions the policy's own
// per-unit count, and the retired state is terminal and entered once.
func (u *unit) stats(evictions uint64) Stats {
	s := Stats{
		Events:     u.execs,
		Instrs:     u.instrs,
		Correct:    u.correct,
		Misspec:    u.misspec,
		NotSpec:    u.execs - u.correct - u.misspec,
		Selections: uint64(u.optCount),
		Evictions:  evictions,
	}
	if u.state == Retired {
		s.Retirals = 1
	}
	return s
}

// sumStats returns the sum of every unit's lifetime counters on pages, as
// counters derives them, plus instrs accounted outside any unit.
func sumStats[T any](pages *Pages[T], instrs uint64, counters func(*T) Stats) Stats {
	s := Stats{Instrs: instrs}
	pages.Each(func(_ uint32, u *T) { s.Add(counters(u)) })
	return s
}

// restore loads the fields unit holds from st and s after checking that s
// is exactly what stats would derive from st. selections and evictions are
// the policy's per-unit counts as st records them; restore holds selections
// as the unit's optCount.
func (u *unit) restore(st BranchState, s Stats, selections uint32, evictions uint64) error {
	if st.State > Retired {
		return &StateError{Field: "State", Reason: fmt.Sprintf("unknown state %d", uint8(st.State))}
	}
	var retirals uint64
	if st.State == Retired {
		retirals = 1
	}
	switch {
	case s.Events != st.Execs:
		return counterError("Events", s.Events, st.Execs)
	case s.Correct > st.Execs || s.Misspec > st.Execs-s.Correct:
		return &StateError{Field: "Stats.Correct", Reason: fmt.Sprintf(
			"%d correct + %d misspeculated exceed %d executions", s.Correct, s.Misspec, st.Execs)}
	case s.NotSpec != st.Execs-s.Correct-s.Misspec:
		return counterError("NotSpec", s.NotSpec, st.Execs-s.Correct-s.Misspec)
	case s.Selections != uint64(selections):
		return counterError("Selections", s.Selections, uint64(selections))
	case s.Evictions != evictions:
		return counterError("Evictions", s.Evictions, evictions)
	case s.Retirals != retirals:
		return counterError("Retirals", s.Retirals, retirals)
	}
	*u = unit{
		liveUntil: st.LiveUntil,
		nextAt:    st.NextAt,
		execs:     st.Execs,
		instrs:    s.Instrs,
		correct:   s.Correct,
		misspec:   s.Misspec,
		optCount:  selections,
		liveDir:   st.LiveDir,
		nextDir:   st.NextDir,
		state:     st.State,
		direction: st.Direction,
	}
	return nil
}

// StateError reports unit state an engine refused to import because it
// cannot hold it exactly: Field names the offending BranchState field, or
// "Stats.<name>" for a lifetime counter that contradicts the state.
type StateError struct {
	Field  string
	Reason string
}

func (e *StateError) Error() string {
	return "core: cannot hold unit state: " + e.Field + ": " + e.Reason
}

func counterError(name string, got, want uint64) error {
	return &StateError{Field: "Stats." + name, Reason: fmt.Sprintf("%d, but the state implies %d", got, want)}
}

// exact checks that a unit imported from want exports as got, naming the
// first field it could not hold: one wider than the policy's 32-bit window
// fields, one the policy does not keep at all, or one it derives from the
// rest of the state as another value.
func exact(policy string, got, want BranchState) error {
	if got == want {
		return nil
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Equal(wv.Field(i)) {
			continue
		}
		reason := fmt.Sprintf("the %s policy holds %v here, not %v", policy, gv.Field(i), wv.Field(i))
		if w := wv.Field(i); w.Kind() == reflect.Uint64 && w.Uint() > math.MaxUint32 {
			reason = fmt.Sprintf("%d exceeds 2^32-1", w.Uint())
		}
		return &StateError{Field: gv.Type().Field(i).Name, Reason: reason}
	}
	return nil
}
