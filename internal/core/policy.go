package core

// Policy is one speculation-control policy driving a single tracked unit (a
// static branch, load, dependence pair, …): the single-unit view of an
// Engine. NewPolicy returns an adapter over unit 0 of the policy's engine,
// so a Policy and the serving table, which runs one engine per partition,
// share one implementation of every policy.
//
// All four speculation kinds are boolean-outcome streams, so the policy sees
// the same shape regardless of kind: one outcome per dynamic event at a
// global instruction count. Implementations must be deterministic — the same
// event sequence must yield the same decisions — because snapshot restore,
// WAL replay and replica failover all rely on bit-exact reproduction.
//
// A Policy is not safe for concurrent use; drive it from one goroutine.
type Policy interface {
	// OnEvent observes one dynamic event, gap instructions after the
	// previous one, and returns the speculation verdict together with the
	// unit's resulting classification state and live-deployment status —
	// everything a serving decision encodes.
	OnEvent(outcome bool, gap, instr uint64) (v Verdict, st State, dir, live bool)
	// State returns the unit's classification state.
	State() State
	// Speculating reports whether speculation is live and its direction.
	Speculating() (dir, live bool)
	// Stats returns the unit's lifetime counters.
	Stats() Stats
	// Export returns the unit's full serializable state, its lifetime
	// counters, and whether the unit has been touched; Import restores
	// them, refusing state the policy cannot hold exactly (see
	// Engine.Import). Policies reuse BranchState as the common snapshot
	// container so the serving layer's snapshot format is
	// policy-independent.
	Export() (BranchState, Stats, bool)
	Import(BranchState, Stats) error
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
// name means PolicyReactive. It fails on an unknown name or on parameters
// Params.Validate rejects.
func NewPolicy(name string, params Params) (Policy, error) {
	e, err := NewEngine(name, params)
	if err != nil {
		return nil, err
	}
	return unitPolicy{e}, nil
}

// unitPolicy adapts unit 0 of a multi-unit Engine to the Policy interface.
type unitPolicy struct{ e Engine }

func (p unitPolicy) OnEvent(outcome bool, gap, instr uint64) (Verdict, State, bool, bool) {
	return p.e.Step(0, outcome, gap, instr)
}

func (p unitPolicy) State() State {
	st, _, _ := p.e.Decide(0)
	return st
}

func (p unitPolicy) Speculating() (dir, live bool) {
	_, dir, live = p.e.Decide(0)
	return dir, live
}

func (p unitPolicy) Stats() Stats {
	_, s, _ := p.e.Export(0)
	return s
}

func (p unitPolicy) Export() (BranchState, Stats, bool)   { return p.e.Export(0) }
func (p unitPolicy) Import(st BranchState, s Stats) error { return p.e.Import(0, st, s) }
