package core

import (
	"math"
	"testing"

	"reactivespec/internal/trace"
)

// This file keeps the reactive controller's earlier page entry — every
// counter of every state side by side, 96 bytes — and its state machine as
// a test-only reference model. TestPackedBranchMatchesReference holds the
// packed 72-byte branch to it: the packed entry multiplexes the state
// windows onto four words and derives the stale fields, which is only
// sound if no observable result moves.

// refUnit is the earlier unit header: the five flags as separate bytes.
type refUnit struct {
	liveUntil uint64
	nextAt    uint64

	execs   uint64
	instrs  uint64
	correct uint64
	misspec uint64

	liveDir    bool
	nextDir    bool
	state      State
	direction  bool
	everBiased bool
}

func (u *refUnit) tick(instr uint64) {
	if u.liveUntil != 0 && instr >= u.liveUntil {
		u.liveUntil = 0
	}
	if u.nextAt != 0 && instr >= u.nextAt {
		u.liveDir = u.nextDir
		u.liveUntil = math.MaxUint64
		u.nextAt = 0
	}
}

func (u *refUnit) live() bool { return u.liveUntil != 0 }

func (u *refUnit) deploy(dir bool, at uint64) {
	if at == 0 {
		at = 1
	}
	u.nextDir = dir
	u.nextAt = at
}

func (u *refUnit) undeploy(at uint64) {
	if at == 0 {
		at = 1
	}
	if u.liveUntil != 0 && at < u.liveUntil {
		u.liveUntil = at
	}
	u.nextAt = 0
}

func (u *refUnit) score(outcome bool, gap, instr uint64) Verdict {
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

func (u *refUnit) untouched() bool { return u.execs == 0 && u.state == Monitor }

func (u *refUnit) exportTo(st *BranchState) {
	st.State = u.state
	st.LiveDir, st.LiveUntil = u.liveDir, u.liveUntil
	st.NextDir, st.NextAt = u.nextDir, u.nextAt
	st.Direction = u.direction
	st.Execs = u.execs
	st.EverBiased = u.everBiased
}

func (u *refUnit) stats(selections, evictions uint64) Stats {
	s := Stats{
		Events:     u.execs,
		Instrs:     u.instrs,
		Correct:    u.correct,
		Misspec:    u.misspec,
		NotSpec:    u.execs - u.correct - u.misspec,
		Selections: selections,
		Evictions:  evictions,
	}
	if u.state == Retired {
		s.Retirals = 1
	}
	return s
}

// refBranch is the earlier 96-byte reactive page entry.
type refBranch struct {
	refUnit

	monSeen  uint32
	monExecs uint32
	monTaken uint32

	cyclePos uint32
	smpExecs uint32
	smpWrong uint32
	counter  uint32

	waitLeft uint32

	optCount  uint32
	evictions uint32
}

// refController is the earlier Controller, driving refBranch entries. It
// also lists the branches it has touched, so its Stats and StaticCounts
// need not walk the pages: the reference is checked after every step, and a
// page walk there would cost the test most of its time.
type refController struct {
	params       Params
	branches     Pages[refBranch]
	touched      []trace.BranchID
	OnTransition func(Transition)
	instrs       uint64
}

func (c *refController) branchFor(id trace.BranchID) *refBranch {
	if b := c.branches.Get(uint32(id)); b != nil && b.execs != 0 {
		return b
	}
	c.touched = append(c.touched, id)
	return c.branches.At(uint32(id))
}

func (c *refController) Step(id trace.BranchID, taken bool, gap, instr uint64) (v Verdict, st State, dir, live bool) {
	b := c.branchFor(id)
	v = b.score(taken, gap, instr)
	switch b.state {
	case Monitor:
		c.onMonitor(id, b, taken, instr)
	case Biased:
		c.onBiased(id, b, taken, instr)
	case Unbiased:
		c.onUnbiased(id, b, instr)
	}
	return v, b.state, b.liveDir, b.live()
}

func (c *refController) AddInstrs(n uint64) { c.instrs += n }

func (c *refController) onMonitor(id trace.BranchID, b *refBranch, taken bool, instr uint64) {
	b.monSeen++
	rate := c.params.MonitorSampleRate
	if rate < 2 || b.monSeen%rate == 0 {
		b.monExecs++
		if taken {
			b.monTaken++
		}
	}
	if uint64(b.monSeen) < c.params.MonitorPeriod {
		return
	}
	taken64, execs := uint64(b.monTaken), uint64(b.monExecs)
	b.monSeen, b.monExecs, b.monTaken = 0, 0, 0
	if execs == 0 {
		c.transition(id, b, Unbiased, instr)
		b.waitLeft = uint32(c.params.WaitPeriod)
		return
	}
	majTaken := taken64*2 >= execs
	maj := taken64
	if !majTaken {
		maj = execs - taken64
	}
	if float64(maj) >= c.params.SelectThreshold*float64(execs) {
		if b.optCount >= c.params.MaxOptimizations {
			c.transition(id, b, Retired, instr)
			return
		}
		b.optCount++
		b.direction = majTaken
		b.counter = 0
		b.cyclePos = 0
		b.smpExecs, b.smpWrong = 0, 0
		b.everBiased = true
		b.deploy(majTaken, instr+c.params.OptLatency)
		c.transition(id, b, Biased, instr)
		return
	}
	c.transition(id, b, Unbiased, instr)
	b.waitLeft = uint32(c.params.WaitPeriod)
}

func (c *refController) onBiased(id trace.BranchID, b *refBranch, taken bool, instr uint64) {
	if c.params.NoEviction {
		return
	}
	if !b.live() || b.liveDir != b.direction {
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

func (c *refController) onBiasedSampling(id trace.BranchID, b *refBranch, taken bool, instr uint64) {
	if uint64(b.cyclePos) < c.params.SampleLen {
		b.smpExecs++
		if taken != b.direction {
			b.smpWrong++
		}
	}
	b.cyclePos++
	if uint64(b.cyclePos) == c.params.SampleLen {
		if b.smpExecs > 0 {
			correct := float64(b.smpExecs-b.smpWrong) / float64(b.smpExecs)
			if correct < c.params.EvictBias {
				c.evict(id, b, instr)
				return
			}
		}
		b.smpExecs, b.smpWrong = 0, 0
	}
	if uint64(b.cyclePos) >= c.params.SamplePeriod {
		b.cyclePos = 0
	}
}

func (c *refController) evict(id trace.BranchID, b *refBranch, instr uint64) {
	b.evictions++
	b.undeploy(instr + c.params.OptLatency)
	b.monSeen, b.monExecs, b.monTaken = 0, 0, 0
	c.transition(id, b, Monitor, instr)
}

func (c *refController) onUnbiased(id trace.BranchID, b *refBranch, instr uint64) {
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

func (c *refController) transition(id trace.BranchID, b *refBranch, to State, instr uint64) {
	from := b.state
	b.state = to
	if c.OnTransition != nil {
		c.OnTransition(Transition{Branch: id, From: from, To: to, Instr: instr, Exec: b.execs, Counter: b.counter})
	}
}

func (c *refController) Stats() Stats {
	s := Stats{Instrs: c.instrs}
	for _, id := range c.touched {
		s.Add(c.branches.Get(uint32(id)).counters())
	}
	return s
}

func (c *refController) StaticCounts() (touched, everBiased, everEvicted, retired int) {
	for _, id := range c.touched {
		b := c.branches.Get(uint32(id))
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
	}
	return touched, everBiased, everEvicted, retired
}

func (c *refController) Evictions(id trace.BranchID) uint32 {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.evictions
	}
	return 0
}

func (c *refController) Optimizations(id trace.BranchID) uint32 {
	if b := c.branches.Get(uint32(id)); b != nil {
		return b.optCount
	}
	return 0
}

func (c *refController) Export(id trace.BranchID) (BranchState, Stats, bool) {
	b := c.branches.Get(uint32(id))
	if b == nil || b.untouched() {
		return BranchState{}, Stats{}, false
	}
	return b.export(), b.counters(), true
}

func (b *refBranch) counters() Stats { return b.stats(uint64(b.optCount), uint64(b.evictions)) }

func (b *refBranch) export() BranchState {
	st := BranchState{
		MonSeen:   uint64(b.monSeen),
		MonExecs:  uint64(b.monExecs),
		MonTaken:  uint64(b.monTaken),
		Counter:   b.counter,
		CyclePos:  uint64(b.cyclePos),
		SmpExecs:  uint64(b.smpExecs),
		SmpWrong:  uint64(b.smpWrong),
		WaitLeft:  uint64(b.waitLeft),
		OptCount:  b.optCount,
		Evictions: b.evictions,
	}
	b.exportTo(&st)
	return st
}

// refStream returns n seeded events over eight branches, with
// behaviors chosen to visit every arc: steady bias (selection), bias that
// flips in phases (eviction, reselection and, past MaxOptimizations,
// retiral), a coin flip (unbiased and revisits), and a branch biased but
// noisy enough to hover at the eviction counter's edge.
func refStream(n int, seed uint64) []trace.Event {
	ids := []trace.BranchID{0, 1, 2, 3, 4, 5, 6, 7}
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	evs := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		r := next()
		k := int(r % uint64(len(ids)))
		var taken bool
		switch k {
		case 0: // steady
			taken = next()%2000 != 0
		case 1, 6: // phases of 300 and 1,100 events
			taken = (i/(300+800*(k/6)))%2 == 0
		case 2: // phases of 4,000 events, slightly noisy
			taken = ((i/4000)%2 == 0) != (next()%500 == 0)
		case 3, 7: // coin flip
			taken = next()%2 == 0
		case 4: // biased, with misspeculation bursts
			taken = !(next()%40 == 0 || (i/2500)%3 == 2 && next()%4 == 0)
		default: // never taken, flipping once late
			taken = i > n*3/4
		}
		evs = append(evs, trace.Event{Branch: ids[k], Taken: taken, Gap: uint32(1 + r>>32%9)})
	}
	return evs
}

// TestPackedBranchMatchesReference drives the packed Controller and the
// 96-byte reference with the same seeded streams under every parameter
// variant whose arcs the packing could disturb, and requires after every
// step: equal Step results, equal Export of the stepped branch (state and
// counters), equal transitions (Counter included), equal Stats,
// StaticCounts, Evictions and Optimizations, and an exact Import(Export)
// round trip.
func TestPackedBranchMatchesReference(t *testing.T) {
	base := DefaultParams().Scaled(100).WithWaitPeriod(300).WithOptLatency(500)
	maxOpt := func(p Params, n uint32) Params { p.MaxOptimizations = n; return p }
	variants := []struct {
		name   string
		params Params
		events int
	}{
		{"scaled10", DefaultParams().Scaled(10), 60_000},
		{"scaled100", DefaultParams().Scaled(100), 30_000},
		{"small", testParams(), 15_000},
		{"small-sampling", testParams().WithSamplingEviction(), 15_000},
		{"sampling", base.WithSamplingEviction(), 30_000},
		{"no-eviction", base.WithNoEviction(), 15_000},
		{"no-revisit", base.WithNoRevisit(), 15_000},
		{"monitor-sampling-3", base.WithMonitorSampling(3), 30_000},
		{"wait-0", base.WithWaitPeriod(0), 30_000},
		{"max-opt-0", maxOpt(base, 0), 15_000},
		{"max-opt-1", maxOpt(base, 1), 30_000},
		{"max-opt-1-sampling", maxOpt(base, 1).WithSamplingEviction(), 30_000},
	}
	for i, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			checkAgainstReference(t, v.params, refStream(v.events, uint64(1000+i)))
		})
	}
}

func checkAgainstReference(t *testing.T, params Params, evs []trace.Event) {
	got, want := New(params), &refController{params: params}
	var gotTr, wantTr []Transition
	got.OnTransition = func(tr Transition) { gotTr = append(gotTr, tr) }
	want.OnTransition = func(tr Transition) { wantTr = append(wantTr, tr) }
	clone := New(params)
	arcs := map[[2]State]int{}

	var instr uint64
	for i, ev := range evs {
		gap := uint64(ev.Gap)
		instr += gap
		if i%5 == 0 {
			// Some gaps go to the controller rather than the branch.
			got.AddInstrs(gap)
			want.AddInstrs(gap)
			gap = 0
		}
		gotTr, wantTr = gotTr[:0], wantTr[:0]
		gv, gs, gd, gl := got.Step(ev.Branch, ev.Taken, gap, instr)
		wv, ws, wd, wl := want.Step(ev.Branch, ev.Taken, gap, instr)
		if gv != wv || gs != ws || gd != wd || gl != wl {
			t.Fatalf("event %d (branch %d): Step = (%v %v %v %v), reference (%v %v %v %v)",
				i, ev.Branch, gv, gs, gd, gl, wv, ws, wd, wl)
		}
		if len(gotTr) != len(wantTr) {
			t.Fatalf("event %d: transitions %+v, reference %+v", i, gotTr, wantTr)
		}
		for j := range gotTr {
			if gotTr[j] != wantTr[j] {
				t.Fatalf("event %d: transition %+v, reference %+v", i, gotTr[j], wantTr[j])
			}
			arcs[[2]State{gotTr[j].From, gotTr[j].To}]++
		}

		gst, gstats, gok := got.Export(ev.Branch)
		wst, wstats, wok := want.Export(ev.Branch)
		if gst != wst || gstats != wstats || gok != wok {
			t.Fatalf("event %d (branch %d): Export\n %+v %+v %v\nreference\n %+v %+v %v",
				i, ev.Branch, gst, gstats, gok, wst, wstats, wok)
		}
		if err := clone.Import(ev.Branch, gst, gstats); err != nil {
			t.Fatalf("event %d (branch %d): re-import refused: %v", i, ev.Branch, err)
		}
		if cst, cstats, _ := clone.Export(ev.Branch); cst != gst || cstats != gstats {
			t.Fatalf("event %d (branch %d): round trip exported %+v %+v, want %+v %+v", i, ev.Branch, cst, cstats, gst, gstats)
		}

		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("event %d: Stats %+v, reference %+v", i, g, w)
		}
		g1, g2, g3, g4 := got.StaticCounts()
		w1, w2, w3, w4 := want.StaticCounts()
		if g1 != w1 || g2 != w2 || g3 != w3 || g4 != w4 {
			t.Fatalf("event %d: StaticCounts (%d %d %d %d), reference (%d %d %d %d)", i, g1, g2, g3, g4, w1, w2, w3, w4)
		}
		if g, w := got.Evictions(ev.Branch), want.Evictions(ev.Branch); g != w {
			t.Fatalf("event %d (branch %d): Evictions %d, reference %d", i, ev.Branch, g, w)
		}
		if g, w := got.Optimizations(ev.Branch), want.Optimizations(ev.Branch); g != w {
			t.Fatalf("event %d (branch %d): Optimizations %d, reference %d", i, ev.Branch, g, w)
		}
	}
	first := [2]State{Monitor, Biased}
	if params.MaxOptimizations == 0 {
		first = [2]State{Monitor, Retired}
	}
	if arcs[first] == 0 {
		t.Fatalf("no %v→%v transition in the stream; it pins nothing (arcs %v)", first[0], first[1], arcs)
	}
	t.Logf("arcs: %v", arcs)
}
