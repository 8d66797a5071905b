package core

import "fmt"

// Policy is one speculation-control policy driving a single tracked unit (a
// static branch, load, dependence pair, …). It is the pluggable abstraction
// behind the serving table: each unit of a table partition owns one Policy
// instance, and the paper's reactive FSM is just the default implementation
// (which the table runs as one multi-branch Controller per partition
// instead).
//
// All four speculation kinds are boolean-outcome streams, so the policy sees
// the same shape regardless of kind: one outcome per dynamic event at a
// global instruction count. Implementations must be deterministic — the same
// event sequence must yield the same decisions — because snapshot restore,
// WAL replay and replica failover all rely on bit-exact reproduction.
//
// A Policy is not safe for concurrent use; drive it from one goroutine.
type Policy interface {
	// OnEvent observes one dynamic event and returns the speculation
	// verdict together with the unit's resulting classification state and
	// live-deployment status — everything a serving decision encodes.
	OnEvent(outcome bool, instr uint64) (v Verdict, st State, dir, live bool)
	// AddInstrs accounts dynamic instructions (the gaps between events).
	AddInstrs(n uint64)
	// State returns the unit's classification state.
	State() State
	// Speculating reports whether speculation is live and its direction.
	Speculating() (dir, live bool)
	// Stats returns the policy's aggregate counters.
	Stats() Stats
	// SetStats overwrites the aggregate counters (snapshot restore).
	SetStats(Stats)
	// Export returns the unit's full serializable state and whether the
	// unit has been touched; Import restores it. Policies reuse
	// BranchState as the common snapshot container so the serving layer's
	// snapshot format is policy-independent.
	Export() (BranchState, bool)
	Import(BranchState)
	// OnTransition registers a hook invoked after every classification
	// change (nil unregisters). The hook must not call back into the
	// policy.
	OnTransition(func(Transition))
}

// Registered policy names. PolicyReactive is the default everywhere a policy
// name is optional.
const (
	// PolicyReactive is the paper's closed-loop FSM (Section 3): monitor,
	// select, evict, revisit.
	PolicyReactive = "reactive"
	// PolicySelfTrain decides once from initial behavior and never
	// revisits — the paper's self-training baseline (Figure 5's
	// self-train line) as an online policy.
	PolicySelfTrain = "selftrain"
	// PolicyProbWeight weighs outcomes with an exponential moving average
	// — a probabilistic-dataflow-style estimator (after Di Pierro &
	// Wiklicky) with deploy/undeploy hysteresis thresholds.
	PolicyProbWeight = "probweight"
)

// PolicyNames lists the registered policy names, default first.
func PolicyNames() []string {
	return []string{PolicyReactive, PolicySelfTrain, PolicyProbWeight}
}

// ValidPolicy reports whether name is a registered policy ("" counts as the
// default, PolicyReactive).
func ValidPolicy(name string) bool {
	switch name {
	case "", PolicyReactive, PolicySelfTrain, PolicyProbWeight:
		return true
	}
	return false
}

// NewPolicy builds one unit's policy instance by registered name. The empty
// name means PolicyReactive.
func NewPolicy(name string, params Params) (Policy, error) {
	switch name {
	case "", PolicyReactive:
		return &reactivePolicy{ctl: New(params)}, nil
	case PolicySelfTrain:
		return &selfTrainPolicy{params: params}, nil
	case PolicyProbWeight:
		return newProbWeightPolicy(params), nil
	}
	return nil, fmt.Errorf("core: unknown policy %q (want one of %v)", name, PolicyNames())
}

// reactivePolicy adapts a single-branch Controller (unit ID 0) to the Policy
// interface. The serving table never uses it — a reactive partition drives
// one multi-branch Controller directly — so this adapter serves the
// non-serving users (PolicySet, experiments).
type reactivePolicy struct {
	ctl *Controller
}

func (p *reactivePolicy) OnEvent(outcome bool, instr uint64) (Verdict, State, bool, bool) {
	return p.ctl.Observe(0, outcome, instr)
}

func (p *reactivePolicy) AddInstrs(n uint64)              { p.ctl.AddInstrs(n) }
func (p *reactivePolicy) State() State                    { return p.ctl.BranchState(0) }
func (p *reactivePolicy) Speculating() (bool, bool)       { return p.ctl.Speculating(0) }
func (p *reactivePolicy) Stats() Stats                    { return p.ctl.Stats() }
func (p *reactivePolicy) SetStats(s Stats)                { p.ctl.SetStats(s) }
func (p *reactivePolicy) Export() (BranchState, bool)     { return p.ctl.ExportBranch(0) }
func (p *reactivePolicy) Import(st BranchState)           { p.ctl.ImportBranch(0, st) }
func (p *reactivePolicy) OnTransition(f func(Transition)) { p.ctl.OnTransition = f }
