package core

import "reactivespec/internal/trace"

// PolicySet drives every unit of one registered policy through the policy's
// multi-unit Engine, presenting the same surface as Controller so any
// registered policy can ride the harness, the experiments, and
// reactiveload's verification mirror. Units are indexed densely from zero,
// as in Controller. For the reactive policy a PolicySet is one Controller.
//
// PolicySet is not safe for concurrent use.
type PolicySet struct {
	name   string
	engine Engine
}

// NewPolicySet builds a policy set for the registered policy name ("" =
// reactive). It fails where NewEngine does.
func NewPolicySet(name string, params Params) (*PolicySet, error) {
	e, err := NewEngine(name, params)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = PolicyReactive
	}
	return &PolicySet{name: name, engine: e}, nil
}

// Name returns the set's registered policy name ("" normalizes to reactive).
func (s *PolicySet) Name() string { return s.name }

// OnBranch observes one dynamic event for the unit and returns the verdict —
// the harness.Controller surface, serving every kind's boolean outcome.
func (s *PolicySet) OnBranch(id trace.BranchID, outcome bool, instr uint64) Verdict {
	v, _, _, _ := s.engine.Step(id, outcome, 0, instr)
	return v
}

// OnEvent observes one dynamic event and returns the full decision tuple,
// mirroring what a serving-table entry encodes.
func (s *PolicySet) OnEvent(id trace.BranchID, outcome bool, instr uint64) (Verdict, State, bool, bool) {
	return s.engine.Step(id, outcome, 0, instr)
}

// AddInstrs accounts dynamic instructions at the set level.
func (s *PolicySet) AddInstrs(n uint64) { s.engine.AddInstrs(n) }

// UnitState returns the unit's classification state (Monitor when unseen).
func (s *PolicySet) UnitState(id trace.BranchID) State {
	st, _, _ := s.engine.Decide(id)
	return st
}

// Speculating reports whether speculation is live for the unit and its
// direction.
func (s *PolicySet) Speculating(id trace.BranchID) (dir, live bool) {
	_, dir, live = s.engine.Decide(id)
	return dir, live
}

// Stats returns the set's aggregate counters over every unit.
func (s *PolicySet) Stats() Stats { return s.engine.Stats() }
