package core

import (
	"fmt"
	"math"

	"reactivespec/internal/trace"
)

// State is a branch's classification state.
type State uint8

const (
	// Monitor means the branch's bias is being measured.
	Monitor State = iota
	// Biased means the branch is selected for speculation.
	Biased
	// Unbiased means the branch is not worth speculating on for now.
	Unbiased
	// Retired means the branch exceeded the oscillation limit and will
	// never be speculated on again.
	Retired
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Monitor:
		return "monitor"
	case Biased:
		return "biased"
	case Unbiased:
		return "unbiased"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Verdict reports how one dynamic branch instance interacted with the
// currently deployed speculative code.
type Verdict uint8

const (
	// NotSpeculated means no speculation covered this instance.
	NotSpeculated Verdict = iota
	// Correct means the instance matched the speculated direction.
	Correct
	// Misspec means the instance contradicted the speculated direction.
	Misspec
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case NotSpeculated:
		return "not-speculated"
	case Correct:
		return "correct"
	case Misspec:
		return "misspec"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// Transition describes one classification change, delivered to the optional
// transition hook. Instr is the global dynamic instruction count and Exec the
// branch's execution index at the transition. Counter is the branch's
// saturating eviction counter at the instant of the transition, as Export
// reports it. It is 0 under eviction by sampling, which keeps no counter, and
// on entry to the biased state, where the counter restarts. Otherwise it is
// EvictThreshold once the branch has been evicted and 0 before that: the
// counter evicts on reaching EvictThreshold and keeps that value outside the
// biased state, so the eviction (biased→monitor) and every later
// monitor→unbiased, monitor→retired and unbiased→monitor transition report
// EvictThreshold.
type Transition struct {
	Branch   trace.BranchID
	From, To State
	Instr    uint64
	Exec     uint64
	Counter  uint32
}

// branch is the reactive policy's per-branch state, one 72-byte page entry
// of a Controller and the bulk of a serving table's per-unit memory: the
// 56-byte unit and four 32-bit window words. A branch is in one state at a
// time, and each state keeps its own window (Figure 4b, Table 2), so the
// words hold whichever counters the current state uses:
//
//	         Monitor   Biased                    Unbiased
//	count    monSeen   counter, or cyclePos      waitLeft
//	sampled  monExecs  smpExecs (sampling)       -
//	taken    monTaken  -                         -
//	wrong    smpWrong (sampling), in every state
//
// The windows are bounded by the Table 2 periods that Params.Validate caps
// at 2^32-1, hence 32 bits. A field a state does not use is fixed, so Export
// derives it (see Controller.export): the monitor window and WaitLeft are 0
// outside their states; outside the biased state, a branch never evicted
// has every biased-state field 0, and an evicted one keeps the values that
// evicted it: Counter = EvictThreshold in counter mode, CyclePos = SmpExecs
// = SampleLen in sampling mode, with SmpWrong kept in wrong. Evictions =
// OptCount − [Biased] and EverBiased = OptCount > 0.
type branch struct {
	unit

	count   uint32
	sampled uint32
	taken   uint32
	wrong   uint32
}

// Controller is the reactive speculation controller. It tracks every static
// branch independently (Section 3.2) and reports, for each dynamic instance,
// whether it was covered by live speculative code and with what outcome.
//
// Controller is the reactive policy's Engine. Branch state lives in
// fixed-size pages indexed by branch ID (Pages), so IDs should be dense from
// zero: the serving table maps client IDs onto dense slots before they reach
// a controller.
//
// Controller is not safe for concurrent use; drive it from one goroutine.
type Controller struct {
	params   Params
	branches Pages[branch]

	// OnTransition, if non-nil, is invoked after every classification
	// change. It must not call back into the controller.
	OnTransition func(Transition)

	// instrs counts the instructions AddInstrs accounted outside every
	// branch.
	instrs uint64
}

// Stats aggregates lifetime counters: one unit's, or their sum over an
// engine (Engine.Stats).
type Stats struct {
	// Events is the number of dynamic branch instances observed.
	Events uint64
	// Instrs is the number of dynamic instructions observed.
	Instrs uint64
	// Correct and Misspec count speculation outcomes; NotSpec counts
	// instances not covered by live speculation.
	Correct, Misspec, NotSpec uint64
	// Selections counts entries into the biased state; Evictions counts
	// biased→monitor transitions; Retirals counts branches hitting the
	// oscillation limit.
	Selections, Evictions, Retirals uint64
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Events += o.Events
	s.Instrs += o.Instrs
	s.Correct += o.Correct
	s.Misspec += o.Misspec
	s.NotSpec += o.NotSpec
	s.Selections += o.Selections
	s.Evictions += o.Evictions
	s.Retirals += o.Retirals
}

// CorrectFrac returns correct speculations as a fraction of all events.
func (s Stats) CorrectFrac() float64 { return frac(s.Correct, s.Events) }

// MisspecFrac returns misspeculations as a fraction of all events.
func (s Stats) MisspecFrac() float64 { return frac(s.Misspec, s.Events) }

// MisspecDistance returns the mean dynamic instructions between
// misspeculations (+Inf if none occurred).
func (s Stats) MisspecDistance() float64 {
	if s.Misspec == 0 {
		return math.Inf(1)
	}
	return float64(s.Instrs) / float64(s.Misspec)
}

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// New returns a controller with the given parameters. It panics with
// Params.Validate's message when the parameters are invalid.
func New(params Params) *Controller {
	if err := params.Validate(); err != nil {
		panic(err.Error())
	}
	return &Controller{params: params}
}

// Params returns the controller's configuration.
func (c *Controller) Params() Params { return c.params }

func (c *Controller) branchFor(id trace.BranchID) *branch {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b
	}
	return c.branches.At(uint32(id))
}

// OnBranch observes one dynamic branch instance. instr is the global dynamic
// instruction count at the instance (monotonically non-decreasing across
// calls). The returned verdict reflects the speculative code live at this
// instant, which — because of optimization latency — may lag the branch's
// classification state.
func (c *Controller) OnBranch(id trace.BranchID, taken bool, instr uint64) Verdict {
	return c.observe(id, c.branchFor(id), taken, 0, instr)
}

// Step is OnBranch that also accounts the gap since the previous event and
// returns the branch's resulting classification state and live-deployment
// status — everything a serving decision encodes — without looking the
// branch up again.
func (c *Controller) Step(id trace.BranchID, taken bool, gap, instr uint64) (v Verdict, st State, dir, live bool) {
	b := c.branchFor(id)
	v = c.observe(id, b, taken, gap, instr)
	return v, b.state, b.liveDir, b.live()
}

func (c *Controller) observe(id trace.BranchID, b *branch, taken bool, gap, instr uint64) Verdict {
	verdict := b.score(taken, gap, instr)
	switch b.state {
	case Monitor:
		c.onMonitor(id, b, taken, instr)
	case Biased:
		c.onBiased(id, b, taken, instr)
	case Unbiased:
		c.onUnbiased(id, b, instr)
	case Retired:
		// Terminal; nothing to update.
	}
	return verdict
}

// AddInstrs accounts dynamic instructions (the gaps between branch events)
// to the controller rather than to a branch.
func (c *Controller) AddInstrs(n uint64) { c.instrs += n }

func (c *Controller) onMonitor(id trace.BranchID, b *branch, taken bool, instr uint64) {
	b.count++
	rate := c.params.MonitorSampleRate
	if rate < 2 || b.count%rate == 0 {
		b.sampled++
		if taken {
			b.taken++
		}
	}
	if uint64(b.count) < c.params.MonitorPeriod {
		return
	}
	// Window complete: classify.
	taken64, execs := uint64(b.taken), uint64(b.sampled)
	b.count, b.sampled, b.taken = 0, 0, 0
	if execs == 0 {
		c.transition(id, b, Unbiased, instr)
		b.count = uint32(c.params.WaitPeriod)
		return
	}
	majTaken := taken64*2 >= execs
	maj := taken64
	if !majTaken {
		maj = execs - taken64
	}
	if float64(maj) >= c.params.SelectThreshold*float64(execs) {
		if b.optCount >= c.params.MaxOptimizations {
			// The oscillation limit: conservatively never
			// speculate on this branch again.
			c.transition(id, b, Retired, instr)
			return
		}
		// The counter or sampling cycle starts at 0 with the window
		// words just cleared.
		b.optCount++
		b.direction = majTaken
		b.wrong = 0
		b.deploy(majTaken, instr+c.params.OptLatency)
		c.transition(id, b, Biased, instr)
		return
	}
	c.transition(id, b, Unbiased, instr)
	b.count = uint32(c.params.WaitPeriod)
}

func (c *Controller) onBiased(id trace.BranchID, b *branch, taken bool, instr uint64) {
	if c.params.NoEviction {
		return
	}
	// Only count outcomes once the speculative code is actually live and
	// matches this classification (Section 3.1: counting starts after the
	// optimization latency has elapsed).
	if !b.live() || b.liveDir != b.direction {
		return
	}
	if c.params.EvictBySampling {
		c.onBiasedSampling(id, b, taken, instr)
		return
	}
	// count is the eviction counter.
	if taken != b.direction {
		next := b.count + c.params.MisspecStep
		if next > c.params.EvictThreshold {
			next = c.params.EvictThreshold
		}
		b.count = next
	} else if b.count >= c.params.CorrectStep {
		b.count -= c.params.CorrectStep
	} else {
		b.count = 0
	}
	if b.count >= c.params.EvictThreshold {
		c.evict(id, b, instr)
	}
}

// onBiasedSampling runs the eviction-by-sampling cycle: count is the cycle
// position, sampled and wrong the current sample's executions and
// misspeculations.
func (c *Controller) onBiasedSampling(id trace.BranchID, b *branch, taken bool, instr uint64) {
	if uint64(b.count) < c.params.SampleLen {
		b.sampled++
		if taken != b.direction {
			b.wrong++
		}
	}
	b.count++
	if uint64(b.count) == c.params.SampleLen {
		// Sample complete: evaluate.
		if b.sampled > 0 {
			correct := float64(b.sampled-b.wrong) / float64(b.sampled)
			if correct < c.params.EvictBias {
				c.evict(id, b, instr)
				return
			}
		}
		b.sampled, b.wrong = 0, 0
	}
	if uint64(b.count) >= c.params.SamplePeriod {
		b.count = 0
	}
}

// evict demotes a biased branch to a fresh monitor window. The evicting
// counter or sample position is dropped, since Export derives it; the
// sample's misspeculations stay in wrong.
func (c *Controller) evict(id trace.BranchID, b *branch, instr uint64) {
	// The stale speculative code remains deployed until the repaired
	// fragment is ready; its outcomes keep being counted.
	b.undeploy(instr + c.params.OptLatency)
	b.count, b.sampled, b.taken = 0, 0, 0
	c.transition(id, b, Monitor, instr)
}

func (c *Controller) onUnbiased(id trace.BranchID, b *branch, instr uint64) {
	if c.params.NoRevisit {
		return
	}
	// count is the wait left; reaching 0 leaves a fresh monitor window.
	if b.count > 0 {
		b.count--
	}
	if b.count == 0 {
		c.transition(id, b, Monitor, instr)
	}
}

func (c *Controller) transition(id trace.BranchID, b *branch, to State, instr uint64) {
	from := b.state
	b.state = to
	if c.OnTransition != nil {
		c.OnTransition(Transition{Branch: id, From: from, To: to, Instr: instr, Exec: b.execs, Counter: c.counter(b)})
	}
}

// counter derives the branch's eviction counter (see branch).
func (c *Controller) counter(b *branch) uint32 {
	switch {
	case c.params.EvictBySampling:
		return 0
	case b.state == Biased:
		return b.count
	case b.optCount > 0:
		return c.params.EvictThreshold
	}
	return 0
}

// evictions derives the branch's eviction count: every selection but a
// current one has ended in an eviction, since eviction is the only way out
// of the biased state.
func (b *branch) evictions() uint32 {
	if b.state == Biased && b.optCount > 0 {
		return b.optCount - 1
	}
	return b.optCount
}

// Stats returns the aggregate counters so far: every branch's lifetime
// counters plus the instructions AddInstrs accounted (see Engine.Stats).
func (c *Controller) Stats() Stats { return sumStats(&c.branches, c.instrs, (*branch).counters) }

// Decide returns the branch's classification state and live deployment.
func (c *Controller) Decide(id trace.BranchID) (st State, dir, live bool) {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.state, b.liveDir, b.live()
	}
	return Monitor, false, false
}

// BranchState returns the classification state of a branch (Monitor for a
// branch never seen).
func (c *Controller) BranchState(id trace.BranchID) State {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.state
	}
	return Monitor
}

// Speculating reports whether speculation is currently live for the branch
// and, if so, its direction. Note that, because of optimization latency,
// this can disagree with BranchState around transitions.
func (c *Controller) Speculating(id trace.BranchID) (dir, live bool) {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.liveDir, b.live()
	}
	return false, false
}

// StaticCounts summarizes per-branch lifecycle statistics: how many static
// branches were touched, how many ever entered the biased state, how many
// were ever evicted, and how many were retired by the oscillation limit
// (the Table 3 static columns).
func (c *Controller) StaticCounts() (touched, everBiased, everEvicted, retired int) {
	c.branches.Each(func(_ uint32, b *branch) {
		if b.execs == 0 {
			return
		}
		touched++
		if b.optCount > 0 {
			everBiased++
		}
		if b.evictions() > 0 {
			everEvicted++
		}
		if b.state == Retired {
			retired++
		}
	})
	return touched, everBiased, everEvicted, retired
}

// Evictions returns how many times the branch has been evicted.
func (c *Controller) Evictions(id trace.BranchID) uint32 {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.evictions()
	}
	return 0
}

// Optimizations returns how many times the branch entered the biased state.
func (c *Controller) Optimizations(id trace.BranchID) uint32 {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.optCount
	}
	return 0
}
