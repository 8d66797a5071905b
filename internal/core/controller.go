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
// saturating eviction counter at the instant of the transition: the eviction
// threshold on a squash-triggered demotion (biased→monitor), and typically
// zero elsewhere.
type Transition struct {
	Branch   trace.BranchID
	From, To State
	Instr    uint64
	Exec     uint64
	Counter  uint32
}

// deployment tracks the lifecycle of the speculative code generated for one
// branch, independent of its classification state: selections become live
// OptLatency instructions later, and evicted code stays live ("lame duck")
// for OptLatency instructions until the repaired code is deployed.
type deployment struct {
	liveUntil uint64 // 0 = not live; math.MaxUint64 = live indefinitely
	nextAt    uint64 // 0 = nothing pending
	liveDir   bool
	nextDir   bool
}

func (d *deployment) tick(instr uint64) {
	if d.liveUntil != 0 && instr >= d.liveUntil {
		d.liveUntil = 0
	}
	if d.nextAt != 0 && instr >= d.nextAt {
		d.liveDir = d.nextDir
		d.liveUntil = math.MaxUint64
		d.nextAt = 0
	}
}

func (d *deployment) live() bool { return d.liveUntil != 0 }

// deploy schedules speculation in direction dir to become live at instant at.
func (d *deployment) deploy(dir bool, at uint64) {
	if at == 0 {
		at = 1
	}
	d.nextDir = dir
	d.nextAt = at
}

// undeploy schedules the currently live speculation to be removed at instant
// at.
func (d *deployment) undeploy(at uint64) {
	if at == 0 {
		at = 1
	}
	if d.liveUntil != 0 && at < d.liveUntil {
		d.liveUntil = at
	}
	d.nextAt = 0
}

// branch is the per-branch classifier state. Fields are grouped by width so
// the struct packs into 104 bytes: it is the bulk of a serving table's
// per-unit memory.
type branch struct {
	dep deployment

	// Monitor-state window.
	monSeen  uint64 // executions elapsed in the current window
	monExecs uint64 // sampled executions
	monTaken uint64 // sampled taken outcomes

	// Biased-state bookkeeping.
	cyclePos uint64 // eviction-by-sampling cycle position
	smpExecs uint64
	smpWrong uint64

	// Unbiased-state bookkeeping.
	waitLeft uint64

	// Lifecycle statistics.
	execs     uint64
	counter   uint32 // biased-state eviction counter
	optCount  uint32
	evictions uint32

	state      State
	direction  bool // biased-state speculation direction
	everBiased bool
}

// Controller is the reactive speculation controller. It tracks every static
// branch independently (Section 3.2) and reports, for each dynamic instance,
// whether it was covered by live speculative code and with what outcome.
//
// Branch state lives in fixed-size pages indexed by branch ID (Pages), so
// IDs should be dense from zero: the serving table maps client IDs onto
// dense slots before they reach a controller.
//
// Controller is not safe for concurrent use; drive it from one goroutine.
type Controller struct {
	params   Params
	branches Pages[branch]

	// OnTransition, if non-nil, is invoked after every classification
	// change. It must not call back into the controller.
	OnTransition func(Transition)

	stats Stats
}

// Stats aggregates a controller's lifetime counters.
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

// New returns a controller with the given parameters.
func New(params Params) *Controller {
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
	return c.observe(id, c.branchFor(id), taken, instr)
}

// Observe is OnBranch that also returns the branch's resulting
// classification state and live-deployment status — everything a serving
// decision encodes — without looking the branch up again.
func (c *Controller) Observe(id trace.BranchID, taken bool, instr uint64) (v Verdict, st State, dir, live bool) {
	b := c.branchFor(id)
	v = c.observe(id, b, taken, instr)
	return v, b.state, b.dep.liveDir, b.dep.live()
}

func (c *Controller) observe(id trace.BranchID, b *branch, taken bool, instr uint64) Verdict {
	b.execs++
	c.stats.Events++

	b.dep.tick(instr)
	verdict := NotSpeculated
	if b.dep.live() {
		if taken == b.dep.liveDir {
			verdict = Correct
			c.stats.Correct++
		} else {
			verdict = Misspec
			c.stats.Misspec++
		}
	} else {
		c.stats.NotSpec++
	}

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

// AddInstrs accounts dynamic instructions (the gaps between branch events).
func (c *Controller) AddInstrs(n uint64) { c.stats.Instrs += n }

func (c *Controller) onMonitor(id trace.BranchID, b *branch, taken bool, instr uint64) {
	b.monSeen++
	rate := uint64(c.params.MonitorSampleRate)
	if rate < 2 || b.monSeen%rate == 0 {
		b.monExecs++
		if taken {
			b.monTaken++
		}
	}
	if b.monSeen < c.params.MonitorPeriod {
		return
	}
	// Window complete: classify.
	taken64, execs := b.monTaken, b.monExecs
	b.monSeen, b.monExecs, b.monTaken = 0, 0, 0
	if execs == 0 {
		c.transition(id, b, Unbiased, instr)
		b.waitLeft = c.params.WaitPeriod
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
			c.stats.Retirals++
			c.transition(id, b, Retired, instr)
			return
		}
		b.optCount++
		b.direction = majTaken
		b.counter = 0
		b.cyclePos = 0
		b.smpExecs, b.smpWrong = 0, 0
		b.everBiased = true
		c.stats.Selections++
		b.dep.deploy(majTaken, instr+c.params.OptLatency)
		c.transition(id, b, Biased, instr)
		return
	}
	c.transition(id, b, Unbiased, instr)
	b.waitLeft = c.params.WaitPeriod
}

func (c *Controller) onBiased(id trace.BranchID, b *branch, taken bool, instr uint64) {
	if c.params.NoEviction {
		return
	}
	// Only count outcomes once the speculative code is actually live and
	// matches this classification (Section 3.1: counting starts after the
	// optimization latency has elapsed).
	if !b.dep.live() || b.dep.liveDir != b.direction {
		return
	}
	if c.params.EvictBySampling {
		c.onBiasedSampling(id, b, taken, instr)
		return
	}
	if taken != b.direction {
		next := b.counter + c.params.MisspecStep
		if next > c.params.EvictThreshold {
			next = c.params.EvictThreshold
		}
		b.counter = next
	} else if b.counter >= c.params.CorrectStep {
		b.counter -= c.params.CorrectStep
	} else {
		b.counter = 0
	}
	if b.counter >= c.params.EvictThreshold {
		c.evict(id, b, instr)
	}
}

func (c *Controller) onBiasedSampling(id trace.BranchID, b *branch, taken bool, instr uint64) {
	if b.cyclePos < c.params.SampleLen {
		b.smpExecs++
		if taken != b.direction {
			b.smpWrong++
		}
	}
	b.cyclePos++
	if b.cyclePos == c.params.SampleLen {
		// Sample complete: evaluate.
		if b.smpExecs > 0 {
			correct := float64(b.smpExecs-b.smpWrong) / float64(b.smpExecs)
			if correct < c.params.EvictBias {
				c.evict(id, b, instr)
				return
			}
		}
		b.smpExecs, b.smpWrong = 0, 0
	}
	if b.cyclePos >= c.params.SamplePeriod {
		b.cyclePos = 0
	}
}

func (c *Controller) evict(id trace.BranchID, b *branch, instr uint64) {
	b.evictions++
	c.stats.Evictions++
	// The stale speculative code remains deployed until the repaired
	// fragment is ready; its outcomes keep being counted.
	b.dep.undeploy(instr + c.params.OptLatency)
	b.monSeen, b.monExecs, b.monTaken = 0, 0, 0
	c.transition(id, b, Monitor, instr)
}

func (c *Controller) onUnbiased(id trace.BranchID, b *branch, instr uint64) {
	if c.params.NoRevisit {
		return
	}
	if b.waitLeft > 0 {
		b.waitLeft--
	}
	if b.waitLeft == 0 {
		b.monSeen, b.monExecs, b.monTaken = 0, 0, 0
		c.transition(id, b, Monitor, instr)
	}
}

func (c *Controller) transition(id trace.BranchID, b *branch, to State, instr uint64) {
	from := b.state
	b.state = to
	if c.OnTransition != nil {
		c.OnTransition(Transition{Branch: id, From: from, To: to, Instr: instr, Exec: b.execs, Counter: b.counter})
	}
}

// Stats returns the aggregate counters so far.
func (c *Controller) Stats() Stats { return c.stats }

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
		return b.dep.liveDir, b.dep.live()
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
		if b.everBiased {
			everBiased++
		}
		if b.evictions > 0 {
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
		return b.evictions
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
