package main

import (
	"fmt"
	"sync"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// paramScale is the daemon's default -param-scale; the oracle uses the same
// parameters.
const paramScale = 10

// frameEvents is the stream workloads' frame size.
const frameEvents = 1024

// batch is one unit of work on a connection: a stream frame or a POST body.
type batch struct {
	kind   trace.Kind
	n      int
	events []trace.Event // kept where a client or the ladder needs them
	frame  []byte        // the trace frame payload (trace.EncodeFrameAppend)
	want   []byte        // the oracle's decisions (server.Decision.Encode)
}

// lane is one connection's ordered work: a warm-up pass touching every unit
// of its program, then the timed run's batches.
type lane struct {
	program string
	warm    []batch
	run     []batch
	events  int // events in run
}

// inputs is everything a workload sends, generated from the seed before
// any clock starts, with every decision precomputed by the oracle.
type inputs struct {
	workload string
	seed     uint64
	params   core.Params
	policy   string
	fsync    string // WAL fsync policy; "" runs without a WAL
	follower bool
	stream   bool // lanes are stream sessions; otherwise HTTP POST
	kinds    []trace.Kind
	lanes    []*lane
	// Decide-mix's open loop on its lane's program and kind: targets in
	// request order, and the rate.
	decideIDs  []trace.BranchID
	decideRate float64
	genTime    time.Duration
	// daemonArgs are extra reactived flags for the primary.
	daemonArgs []string
}

// Rate ceilings size each run's inputs: a lane holds what the workload could
// consume in --seconds at this many events per second, which is about twice
// the rate measured on a 2-vCPU Xeon. A run that exhausts them stops early
// and says so.
const (
	streamHopLaneRate   = 3_000_000
	postDurableLaneRate = 500_000
	decideMixLaneRate   = 10_000_000
	decideRate          = 250 // GET /v2/decide per second, open loop
	ladderLaneEvents    = 131_072
)

// laneSpec describes how to generate one lane.
type laneSpec struct {
	program     string
	model       string
	staticScale float64
	kinds       []trace.Kind // rotated per batch
	minBatch    int
	maxBatch    int
}

func buildInputs(name string, seed uint64, seconds int, traced bool) (*inputs, error) {
	start := time.Now()
	in := &inputs{
		workload: name,
		seed:     seed,
		params:   core.DefaultParams().Scaled(paramScale),
		policy:   core.PolicyReactive,
	}
	var specs []laneSpec
	var rate float64
	switch name {
	case "stream-hop":
		// Branch-hopping models at a static scale that puts ~119k units in
		// the table: about 10x the 4 MiB L2 at ~400 B per unit.
		in.stream = true
		in.kinds = []trace.Kind{trace.KindBranch}
		specs = []laneSpec{
			{program: "gcc", model: "gcc", staticScale: 8, kinds: in.kinds, minBatch: frameEvents, maxBatch: frameEvents},
			{program: "vortex", model: "vortex", staticScale: 16, kinds: in.kinds, minBatch: frameEvents, maxBatch: frameEvents},
		}
		rate = streamHopLaneRate
	case "post-durable":
		// A bursty model with a few hundred units per kind; each connection
		// rotates through every kind in small batches.
		in.fsync = "always"
		in.follower = true
		in.kinds = []trace.Kind{trace.KindBranch, trace.KindValue, trace.KindMemdep, trace.KindTLSpec}
		specs = []laneSpec{
			{program: "gzip-a", model: "gzip", staticScale: 1, kinds: in.kinds, minBatch: 32, maxBatch: 128},
			{program: "gzip-b", model: "gzip", staticScale: 1, kinds: in.kinds, minBatch: 32, maxBatch: 128},
		}
		rate = postDurableLaneRate
	case "decide-mix":
		in.stream = true
		in.fsync = "interval"
		in.policy = core.PolicyProbWeight
		in.kinds = []trace.Kind{trace.KindValue}
		specs = []laneSpec{
			{program: "gcc", model: "gcc", kinds: in.kinds, minBatch: frameEvents, maxBatch: frameEvents},
		}
		rate = decideMixLaneRate
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	budget := int(rate) * seconds
	keepEvents := traced || !in.stream
	if traced {
		budget = ladderLaneEvents
	}
	in.lanes = make([]*lane, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, ls := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.lanes[i], errs[i] = buildLane(ls, seed+uint64(i)*0x9e37, budget, keepEvents, in.params, in.policy)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if name == "decide-mix" {
		in.decideRate = decideRate
		in.decideIDs = decideTargets(in.lanes[0], seed, int(decideRate)*(seconds+1))
	}
	in.genTime = time.Since(start)
	return in, nil
}

// buildLane generates one lane's warm-up and run batches and computes the
// oracle's decisions for them: one core.PolicySet per (program, kind), fed
// the events in the order the daemon will apply them.
func buildLane(ls laneSpec, seed uint64, budget int, keepEvents bool, params core.Params, policy string) (*lane, error) {
	spec, err := workload.Build(ls.model, workload.InputEval, workload.Options{Seed: seed, StaticScale: ls.staticScale})
	if err != nil {
		return nil, err
	}
	if spec.Events < uint64(budget) {
		scale := workload.DefaultEventScale * (float64(budget)/float64(spec.Events) + 0.05)
		spec, err = workload.Build(ls.model, workload.InputEval, workload.Options{Seed: seed, StaticScale: ls.staticScale, EventScale: scale})
		if err != nil {
			return nil, err
		}
	}
	l := &lane{program: ls.program}
	type oracle struct {
		set   *core.PolicySet
		instr uint64
	}
	oracles := map[trace.Kind]*oracle{}
	decide := func(kind trace.Kind, evs []trace.Event) ([]byte, error) {
		o := oracles[kind]
		if o == nil {
			set, err := core.NewPolicySet(policy, params)
			if err != nil {
				return nil, err
			}
			o = &oracle{set: set}
			oracles[kind] = o
		}
		want := make([]byte, len(evs))
		for i, ev := range evs {
			o.instr += uint64(ev.Gap)
			v, st, dir, live := o.set.OnEvent(ev.Branch, ev.Taken, o.instr)
			want[i] = server.Decision{Verdict: v, State: st, Dir: dir, Live: live}.Encode()
		}
		return want, nil
	}
	add := func(dst *[]batch, kind trace.Kind, evs []trace.Event, keep bool) error {
		want, err := decide(kind, evs)
		if err != nil {
			return err
		}
		b := batch{kind: kind, n: len(evs), want: want, frame: trace.EncodeFrameAppend(nil, evs)}
		if keep {
			b.events = append([]trace.Event(nil), evs...)
		}
		*dst = append(*dst, b)
		return nil
	}

	// Warm-up: one event on every unit of every kind, in frame-sized pieces.
	warm := make([]trace.Event, len(spec.Branches))
	for id := range warm {
		warm[id] = trace.Event{Branch: trace.BranchID(id), Taken: true, Gap: spec.MeanGap}
	}
	for _, kind := range ls.kinds {
		for off := 0; off < len(warm); off += frameEvents {
			if err := add(&l.warm, kind, warm[off:min(off+frameEvents, len(warm))], true); err != nil {
				return nil, err
			}
		}
	}

	// The run: batch sizes and kinds follow the seed.
	gen := workload.NewGenerator(spec)
	rnd := seed*0x2545f4914f6cdd1d + 1
	buf := make([]trace.Event, ls.maxBatch)
	for j := 0; l.events < budget; j++ {
		size := ls.minBatch
		if ls.maxBatch > ls.minBatch {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			size += int(rnd % uint64(ls.maxBatch-ls.minBatch+1))
		}
		n := gen.NextBatch(buf[:size])
		if n == 0 {
			break
		}
		if err := add(&l.run, ls.kinds[j%len(ls.kinds)], buf[:n], keepEvents); err != nil {
			return nil, err
		}
		l.events += n
	}
	return l, nil
}

// decideTargets picks the open loop's unit ids from the lane's own run
// events, so every decide reads a unit the ingest is writing.
func decideTargets(l *lane, seed uint64, n int) []trace.BranchID {
	ids := make([]trace.BranchID, 0, n)
	rnd := seed | 1
	for len(ids) < n {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		b := l.run[int(rnd%uint64(len(l.run)))]
		it := trace.NewFrameIter(b.frame)
		skip := int((rnd >> 32) % uint64(b.n))
		var ev trace.Event
		for k := 0; k <= skip; k++ {
			ev, _ = it.Next()
		}
		ids = append(ids, ev.Branch)
	}
	return ids
}

// warmEvents counts one lane's warm-up events.
func (l *lane) warmEvents() int {
	n := 0
	for _, b := range l.warm {
		n += b.n
	}
	return n
}

// pairs lists the (program, kind) cursor keys the lane writes.
func (l *lane) pairs(kinds []trace.Kind) []string {
	keys := make([]string, len(kinds))
	for i, k := range kinds {
		keys[i] = trace.EncodeKindProgram(k, l.program)
	}
	return keys
}
