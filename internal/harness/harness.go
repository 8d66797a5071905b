// Package harness drives speculation controllers over branch-event streams
// and accounts the resulting correct/incorrect speculation statistics. It is
// the functional-simulation loop of Sections 2 and 3: architecture-
// independent, tracking each branch's interaction with whatever control
// policy is plugged in.
package harness

import (
	"context"
	"math"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Controller is any speculation-control policy: reactive (core.Controller),
// static profile-based, or initial-behavior-based.
type Controller interface {
	// OnBranch observes one dynamic branch instance at global instruction
	// count instr and reports the speculation outcome.
	OnBranch(id trace.BranchID, taken bool, instr uint64) core.Verdict
}

// instrSink is implemented by controllers that want the instruction stream
// accounted to them as well (core.Controller uses it for its own
// misspeculation-distance statistic).
type instrSink interface {
	AddInstrs(n uint64)
}

// Stats summarizes one run.
type Stats struct {
	// Events is the total number of dynamic branch instances.
	Events uint64
	// Instrs is the total number of dynamic instructions.
	Instrs uint64
	// Correct, Misspec and NotSpec partition Events by verdict.
	Correct, Misspec, NotSpec uint64
}

// CorrectFrac returns correct speculations as a fraction of all events
// (the y axis of Figures 2 and 5).
func (s Stats) CorrectFrac() float64 { return frac(s.Correct, s.Events) }

// MisspecFrac returns misspeculations as a fraction of all events
// (the x axis of Figures 2 and 5).
func (s Stats) MisspecFrac() float64 { return frac(s.Misspec, s.Events) }

// MisspecDistance returns the mean dynamic instructions between
// misspeculations (+Inf if none occurred) — Table 3's final column.
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

// Run drives the controller over the whole stream and returns the run's
// statistics.
func Run(s trace.Stream, ctl Controller) Stats {
	st, _ := run(context.Background(), s, ctl, nil)
	return st
}

// ctxCheckEvery is how many events RunContext processes between context
// polls: frequent enough that cancelation lands within milliseconds, rare
// enough to stay invisible in the hot loop.
const ctxCheckEvery = 1 << 16

// RunContext is Run with cooperative cancelation: it polls ctx every
// ctxCheckEvery events and stops early when the context is done, returning
// the statistics accumulated so far together with the context's error. Long
// sweeps use it so a deadline cancels mid-benchmark, not only between
// benchmarks.
func RunContext(ctx context.Context, s trace.Stream, ctl Controller) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, s, ctl, nil)
}

// Observer is an optional per-event callback for experiments that need to
// watch the raw stream alongside the controller (eviction neighborhoods,
// characterization windows, …). It runs after the controller has processed
// the event.
type Observer func(ev trace.Event, instr uint64, v core.Verdict)

// RunObserved is Run with a per-event observer.
func RunObserved(s trace.Stream, ctl Controller, obs Observer) Stats {
	st, _ := run(context.Background(), s, ctl, obs)
	return st
}

// run is the one verdict-counting loop behind Run, RunContext and
// RunObserved: it polls ctx every ctxCheckEvery events and calls obs, when
// non-nil, after each one.
func run(ctx context.Context, s trace.Stream, ctl Controller, obs Observer) (Stats, error) {
	var st Stats
	sink, _ := ctl.(instrSink)
	instr := uint64(0)
	for {
		if st.Events%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		ev, ok := s.Next()
		if !ok {
			return st, nil
		}
		instr += uint64(ev.Gap)
		if sink != nil {
			sink.AddInstrs(uint64(ev.Gap))
		}
		st.Events++
		st.Instrs += uint64(ev.Gap)
		v := ctl.OnBranch(ev.Branch, ev.Taken, instr)
		switch v {
		case core.Correct:
			st.Correct++
		case core.Misspec:
			st.Misspec++
		default:
			st.NotSpec++
		}
		if obs != nil {
			obs(ev, instr, v)
		}
	}
}
