package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// window is the length of the slices a timed run is cut into; each
// throughput, latency and CPU metric is the median over its windows.
const window = 500 * time.Millisecond

// windowStats is what one window of the timed run acked.
type windowStats struct {
	events int64
	lat    samples
}

// setups is how many times each end-to-end run sets the daemons up; setup_s
// is the median, and the last set-up serves the timed run.
const setups = 5

// env is one set-up: the daemons and the connections the lanes drive.
type env struct {
	primary  *daemon
	follower *daemon
	streams  []*server.Stream
	clients  []*server.Client
	acked    []*ackLog // per lane
}

func (e *env) close() {
	for _, st := range e.streams {
		if st != nil {
			st.Close()
		}
	}
	e.follower.kill()
	e.primary.kill()
}

// ackLog is one lane's acknowledged-event record per kind, with the times
// at which the counts were reached (for replica lag).
type ackLog struct {
	mu     sync.Mutex
	counts map[trace.Kind]uint64
	points map[trace.Kind][]ackPoint
}

type ackPoint struct {
	at  time.Time
	cum uint64
}

func newAckLog() *ackLog {
	return &ackLog{counts: map[trace.Kind]uint64{}, points: map[trace.Kind][]ackPoint{}}
}

func (a *ackLog) ack(kind trace.Kind, n int, at time.Time, timeline bool) {
	a.mu.Lock()
	a.counts[kind] += uint64(n)
	if timeline {
		a.points[kind] = append(a.points[kind], ackPoint{at: at, cum: a.counts[kind]})
	}
	a.mu.Unlock()
}

func (a *ackLog) count(kind trace.Kind) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts[kind]
}

// lagBehind returns how long ago the first event beyond applied was acked,
// or zero when applied covers every ack.
func (a *ackLog) lagBehind(kind trace.Kind, applied uint64, now time.Time) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	pts := a.points[kind]
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if pts[mid].cum > applied {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(pts) {
		return 0
	}
	return now.Sub(pts[lo].at)
}

// laneResult is what one lane measured in the timed run.
type laneResult struct {
	acks      []ackRec
	ops       int64
	failed    int64
	events    int64
	lastAck   time.Time
	exhausted bool
	err       error
}

// ackRec is one acknowledged batch: when its decisions arrived, how many
// events it carried, and its latency.
type ackRec struct {
	at  time.Time
	n   int
	lat time.Duration
}

// checkDecisions compares a batch's decisions with the oracle's bytes.
func checkDecisions(b *batch, ds []server.Decision) error {
	if len(ds) != b.n {
		return fmt.Errorf("%d decisions for %d events", len(ds), b.n)
	}
	for i, d := range ds {
		if d.Encode() != b.want[i] {
			return fmt.Errorf("decision %d of %d is %#02x, oracle says %#02x", i, b.n, d.Encode(), b.want[i])
		}
	}
	return nil
}

// pumpStream sends batches over a stream session, pipelined within its
// window, until they run out or stop passes (zero stop: send all), and
// checks every decision frame against the oracle. With a recorder, each
// send is a span under parent: the time SendEncodedKind blocks.
func pumpStream(ctx context.Context, st *server.Stream, batches []batch, stop time.Time, acks *ackLog, rep *report, rec *recorder, parent int32) laneResult {
	var res laneResult
	type inflight struct {
		i  int
		at time.Time
	}
	sent := make(chan inflight, st.Window()+1)
	sendErr := make(chan error, 1)
	go func() {
		defer close(sent)
		for i := range batches {
			if !stop.IsZero() && time.Now().After(stop) {
				sendErr <- nil
				return
			}
			b := &batches[i]
			var id int32
			if rec != nil {
				id = rec.begin("server.stream.credit_wait", parent, int64(i))
			}
			err := st.SendEncodedKind(ctx, b.kind, b.frame, b.n)
			if rec != nil {
				rec.end(id, 1, err != nil)
			}
			if err != nil {
				sendErr <- err
				return
			}
			sent <- inflight{i: i, at: time.Now()}
		}
		res.exhausted = !stop.IsZero()
		sendErr <- nil
	}()
	for f := range sent {
		ds, err := st.Recv(ctx)
		now := time.Now()
		res.ops++
		if err != nil {
			res.failed++
			res.err = fmt.Errorf("receiving decisions: %w", err)
			break
		}
		b := &batches[f.i]
		if err := checkDecisions(b, ds); err != nil {
			res.failed++
			rep.fail(0, "frame %d: %v", f.i, err)
		}
		res.acks = append(res.acks, ackRec{at: now, n: b.n, lat: now.Sub(f.at)})
		res.events += int64(b.n)
		res.lastAck = now
		acks.ack(b.kind, b.n, now, false)
	}
	if res.err != nil {
		// Closing the session discards undelivered decision frames and
		// fails a send blocked on credit, so the sender finishes.
		st.Close()
		for range sent {
		}
	}
	if err := <-sendErr; err != nil && res.err == nil {
		res.failed++
		res.err = err
	}
	return res
}

// pumpPost posts each batch to its kind's ingest endpoint, one request at a
// time on the lane's own connection, and checks every decision.
func pumpPost(ctx context.Context, c *server.Client, l *lane, batches []batch, stop time.Time, acks *ackLog, timeline bool, rep *report) laneResult {
	var res laneResult
	for i := range batches {
		if !stop.IsZero() && time.Now().After(stop) {
			return res
		}
		b := &batches[i]
		t0 := time.Now()
		ds, err := c.IngestKind(ctx, l.program, b.kind, b.events)
		now := time.Now()
		res.ops++
		if err != nil {
			// The daemon's state no longer follows the oracle's; the lane
			// cannot go on.
			res.failed++
			res.err = fmt.Errorf("ingest batch %d: %w", i, err)
			return res
		}
		if err := checkDecisions(b, ds); err != nil {
			res.failed++
			rep.fail(0, "%s batch %d (%s): %v", l.program, i, b.kind, err)
		}
		res.acks = append(res.acks, ackRec{at: now, n: b.n, lat: now.Sub(t0)})
		res.events += int64(b.n)
		res.lastAck = now
		acks.ack(b.kind, b.n, now, timeline)
	}
	res.exhausted = !stop.IsZero()
	return res
}

// setUp starts the workload's daemons, waits for the follower to attach
// when there is one, connects every lane and runs the warm-up pass,
// returning once the primary has acked it.
func setUp(ctx context.Context, o options, in *inputs, dir string, rep *report) (*env, float64, error) {
	start := time.Now()
	e := &env{}
	fail := func(err error) (*env, float64, error) {
		e.close()
		return nil, 0, err
	}
	var err error
	e.primary, err = startDaemon(ctx, o.bin, daemonConfig{
		name: "primary", dir: filepath.Join(dir, "primary"), policy: in.policy,
		fsync: in.fsync, stream: in.stream, ship: in.follower, extra: in.daemonArgs,
	})
	if err != nil {
		return fail(err)
	}
	if in.follower {
		e.follower, err = startDaemon(ctx, o.bin, daemonConfig{
			name: "follower", dir: filepath.Join(dir, "follower"), policy: in.policy,
			fsync: in.fsync, replicaOf: e.primary.repl,
		})
		if err != nil {
			return fail(err)
		}
		if err := waitAttached(ctx, e.primary, 30*time.Second); err != nil {
			return fail(err)
		}
	}
	info, err := e.primary.client.Info(ctx)
	if err != nil {
		return fail(err)
	}
	hash, err := server.ParseInfoParamsHash(info)
	if err != nil {
		return fail(err)
	}
	e.acked = make([]*ackLog, len(in.lanes))
	for i := range e.acked {
		e.acked[i] = newAckLog()
	}
	results := make([]laneResult, len(in.lanes))
	var wg sync.WaitGroup
	for i, l := range in.lanes {
		if in.stream {
			st, err := server.DialStream(ctx, e.primary.stream, l.program, hash)
			if err != nil {
				return fail(fmt.Errorf("opening stream session for %s: %w", l.program, err))
			}
			e.streams = append(e.streams, st)
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = pumpStream(ctx, st, l.warm, time.Time{}, e.acked[i], rep, nil, -1)
			}()
			continue
		}
		c := server.Connect(e.primary.base,
			server.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}),
			server.WithTimeout(30*time.Second))
		e.clients = append(e.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = pumpPost(ctx, c, l, l.warm, time.Time{}, e.acked[i], true, rep)
		}()
	}
	wg.Wait()
	for _, r := range results {
		rep.attempted += r.ops
		rep.failed += r.failed
		if r.err != nil {
			return fail(fmt.Errorf("warm-up: %w", r.err))
		}
	}
	return e, time.Since(start).Seconds(), nil
}

// waitAttached polls the primary's /metrics until it reports an attached
// replication follower.
func waitAttached(ctx context.Context, primary *daemon, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		text, err := primary.client.Metrics(ctx)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "reactived_replication_sessions "); ok {
				if n, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && n >= 1 {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no follower attached to the primary within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFollower polls until the follower's cursor equals the primary's acked
// count for every (program, kind), returning how long that took.
func waitFollower(ctx context.Context, e *env, in *inputs, limit time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		behind := 0
		for i, l := range in.lanes {
			got, err := e.follower.cursorEvents(ctx, l.pairs(in.kinds))
			if err != nil {
				return 0, err
			}
			for k, kind := range in.kinds {
				if got[k] != e.acked[i].count(kind) {
					behind++
				}
			}
		}
		if behind == 0 {
			return time.Since(start), nil
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("follower cursor differs from the primary's acks on %d (program, kind) pairs after %v", behind, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// runEndToEnd measures one workload against real daemons.
func runEndToEnd(o options, in *inputs, rep *report) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	dir := filepath.Join("run", fmt.Sprintf("%s-%d", in.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	runEvents := 0
	for _, l := range in.lanes {
		runEvents += l.events
	}
	rep.note("inputs: %d lanes, %d run events prepared, generated with the oracle's decisions in %.2fs",
		len(in.lanes), runEvents, in.genTime.Seconds())

	var setupTimes []float64
	var e *env
	for i := 0; i < setups; i++ {
		os.RemoveAll(dir)
		next, secs, err := setUp(ctx, o, in, dir, rep)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, secs)
		if i < setups-1 {
			next.close()
		} else {
			e = next
		}
	}
	defer func() { e.close() }()
	rep.add("setup_s", median(setupTimes), "s", setups)
	// The timed run starts with the follower caught up on the warm-up.
	if e.follower != nil {
		if _, err := waitFollower(ctx, e, in, 30*time.Second); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	pids := []int{e.primary.pid()}
	if e.follower != nil {
		pids = append(pids, e.follower.pid())
	}
	start := time.Now()
	stop := start.Add(time.Duration(o.seconds) * time.Second)
	results := make([]laneResult, len(in.lanes))
	var wg sync.WaitGroup
	for i, l := range in.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if in.stream {
				results[i] = pumpStream(ctx, e.streams[i], l.run, stop, e.acked[i], rep, nil, -1)
			} else {
				results[i] = pumpPost(ctx, e.clients[i], l, l.run, stop, e.acked[i], in.follower, rep)
			}
		}()
	}
	var lag samples
	var dec decideResult
	if in.follower {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lag = sampleLag(ctx, e, in, stop)
		}()
	}
	if in.decideRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec = openLoopDecide(ctx, e.primary.base, in, start, stop)
		}()
	}
	// The daemons' CPU time at every window boundary.
	nwin := int(time.Duration(o.seconds) * time.Second / window)
	cpu := make([]int64, nwin+1)
	var cpuErr error
	for w := 0; w <= nwin && cpuErr == nil; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		cpu[w], cpuErr = sumCPU(pids)
	}
	wg.Wait()
	if cpuErr != nil {
		return cpuErr
	}

	// A lane that ran out of prepared inputs leaves the windows after its
	// last ack unmeasured; only the windows before it count.
	for _, r := range results {
		if r.exhausted {
			nwin = min(nwin, int(r.lastAck.Sub(start)/window))
		}
	}
	if nwin < 2 {
		return fmt.Errorf("the prepared inputs lasted less than two %v windows", window)
	}
	wins := make([]windowStats, nwin)
	var events int64
	for i, r := range results {
		rep.attempted += r.ops
		rep.failed += r.failed
		for _, a := range r.acks {
			events += int64(a.n)
			if w := int(a.at.Sub(start) / window); w < nwin {
				wins[w].events += int64(a.n)
				wins[w].lat = append(wins[w].lat, a.lat)
			}
		}
		if r.err != nil {
			rep.fail(0, "lane %s: %v", in.lanes[i].program, r.err)
		}
		if r.exhausted {
			rep.note("lane %s used all %d prepared events before the deadline; %d windows measured: raise its rate ceiling",
				in.lanes[i].program, in.lanes[i].events, nwin)
		}
	}
	if events == 0 {
		return fmt.Errorf("no event was acked in the timed run")
	}
	// Each metric is the median over the run's windows, so a stall confined
	// to one window moves it little.
	var rate, p50, p99, cpuPer []float64
	minLat, nLat := 0, 0
	for w, ws := range wins {
		if ws.events == 0 {
			return fmt.Errorf("window %d acked no event", w)
		}
		rate = append(rate, float64(ws.events)/window.Seconds())
		p50 = append(p50, ws.lat.quantileMs(0.50))
		p99 = append(p99, ws.lat.quantileMs(0.99))
		cpuPer = append(cpuPer, float64(cpu[w+1]-cpu[w])/float64(ws.events))
		if w == 0 || len(ws.lat) < minLat {
			minLat = len(ws.lat)
		}
		nLat += len(ws.lat)
	}
	rep.add("events_per_s", median(rate), "ev/s", int(events))
	rep.add("batch_p50_ms", median(p50), "ms", nLat)
	rep.add("batch_p99_ms", median(p99), "ms", nLat)
	if minLat < 1000 {
		rep.note("a window holds only %d batch latency samples (want at least 1000 for its p99)", minLat)
	}
	rep.add("cpu_ns_per_event", median(cpuPer), "ns", int(events))
	rss, err := peakRSSBytes(e.primary.pid())
	if err != nil {
		return err
	}
	rep.add("rss_mb", float64(rss)/(1<<20), "MiB", 1)

	if in.decideRate > 0 {
		rep.attempted += dec.ops
		rep.failed += dec.failed
		if dec.err != nil {
			rep.fail(0, "decide: %v", dec.err)
		}
		rep.add("decide_p50_ms", dec.lat.quantileMs(0.50), "ms", len(dec.lat))
		rep.add("decide_p99_ms", dec.lat.quantileMs(0.99), "ms", len(dec.lat))
		rep.add("decide_late_p99_ms", dec.late.quantileMs(0.99), "ms", len(dec.late))
		if dec.behind {
			rep.note("FLAG: the decide generator fell behind its schedule (last request %.1f ms late)", ms(dec.lastLate))
		}
	}

	// Post-run checks: cursors against acks, follower against primary.
	mismatches := 0
	var detail []string
	for i, l := range in.lanes {
		got, err := e.primary.cursorEvents(ctx, l.pairs(in.kinds))
		if err != nil {
			return err
		}
		for k, kind := range in.kinds {
			if want := e.acked[i].count(kind); got[k] != want {
				mismatches++
				detail = append(detail, fmt.Sprintf("%s/%s cursor %d, acked %d", l.program, kind, got[k], want))
			}
		}
	}
	rep.add("cursor_mismatches", float64(mismatches), "count", len(in.lanes)*len(in.kinds))
	if mismatches > 0 {
		if in.stream {
			rep.note("known defect: stream ingest does not advance /v1/cursor events (%v)", detail)
		} else {
			rep.fail(int64(mismatches), "cursor mismatches on the POST path: %v", detail)
		}
	}
	if in.fsync != "" {
		b, err := dirBytes(filepath.Join(e.primary.dir, "wal"))
		if err != nil {
			return err
		}
		total := events
		for _, l := range in.lanes {
			total += int64(l.warmEvents())
		}
		rep.add("wal_bytes_per_event", float64(b)/float64(total), "B", int(total))
	}
	if e.follower != nil {
		rep.add("replica_lag_ms", lag.quantileMs(0.50), "ms", len(lag))
		rep.add("replica_lag_p99_ms", lag.quantileMs(0.99), "ms", len(lag))
		rep.attempted++
		catchUp, err := waitFollower(ctx, e, in, 30*time.Second)
		if err != nil {
			rep.fail(1, "%v", err)
		} else {
			rep.add("replica_catchup_ms", ms(catchUp), "ms", 1)
		}
		if err := recoverPrimary(ctx, o, in, e, rep); err != nil {
			return err
		}
	}
	rep.add("error_frac", float64(rep.failed)/float64(rep.attempted), "ratio", int(rep.attempted))
	return nil
}

func sumCPU(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		n, err := cpuNanos(pid)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// sampleLag reads the follower's cursors every 40 ms until stop and turns
// each into how long ago the primary acked the first event the follower
// has not applied yet.
func sampleLag(ctx context.Context, e *env, in *inputs, stop time.Time) samples {
	var out samples
	for time.Now().Before(stop) {
		for i, l := range in.lanes {
			got, err := e.follower.cursorEvents(ctx, l.pairs(in.kinds))
			now := time.Now()
			if err != nil {
				return out
			}
			for k, kind := range in.kinds {
				out = append(out, e.acked[i].lagBehind(kind, got[k], now))
			}
		}
		time.Sleep(40 * time.Millisecond)
	}
	return out
}

// recoverPrimary SIGKILLs the primary after the run, restarts it on the
// same WAL and times it until /healthz answers with the log replayed, then
// checks that every acked event survived.
func recoverPrimary(ctx context.Context, o options, in *inputs, e *env, rep *report) error {
	e.follower.kill()
	e.follower = nil
	start := time.Now()
	e.primary.kill()
	d, err := startDaemon(ctx, o.bin, daemonConfig{
		name: "restarted primary", dir: e.primary.dir, policy: in.policy,
		fsync: in.fsync, stream: in.stream, ship: in.follower,
	})
	if err != nil {
		return err
	}
	e.primary = d
	rep.add("recover_s", time.Since(start).Seconds(), "s", 1)
	missing := 0
	for i, l := range in.lanes {
		got, err := d.cursorEvents(ctx, l.pairs(in.kinds))
		if err != nil {
			return err
		}
		for k, kind := range in.kinds {
			rep.attempted++
			if want := e.acked[i].count(kind); got[k] != want {
				missing++
				rep.fail(1, "after restart %s/%s holds %d events, %d were acked", l.program, kind, got[k], want)
			}
		}
	}
	if missing == 0 {
		rep.note("restart kept every acked event on all %d (program, kind) pairs", len(in.lanes)*len(in.kinds))
	}
	return nil
}

// decideResult is what the open-loop decide generator measured.
type decideResult struct {
	lat, late samples
	ops       int64
	failed    int64
	lastLate  time.Duration
	behind    bool
	err       error
}

// openLoopDecide issues GET /v2/decide on its own connection at a fixed rate
// from start until stop. Latency runs from when each request was due, so a
// stall also charges the requests queued behind it.
func openLoopDecide(ctx context.Context, base string, in *inputs, start, stop time.Time) decideResult {
	var res decideResult
	c := server.Connect(base,
		server.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}),
		server.WithTimeout(30*time.Second))
	period := time.Duration(float64(time.Second) / in.decideRate)
	program, kind := in.lanes[0].program, in.kinds[0]
	for i, id := range in.decideIDs {
		due := start.Add(time.Duration(i) * period)
		if due.After(stop) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		resp, err := c.DecideKind(ctx, program, kind, id)
		done := time.Now()
		res.ops++
		switch {
		case err != nil:
			res.failed++
			if res.err == nil {
				res.err = err
			}
			continue
		case resp.ID != uint32(id) || resp.Kind != kind.String() || resp.State == "":
			res.failed++
			if res.err == nil {
				res.err = fmt.Errorf("decide %d answered %+v", id, resp)
			}
			continue
		}
		res.lat = append(res.lat, done.Sub(due))
		res.late = append(res.late, sent.Sub(due))
		res.lastLate = sent.Sub(due)
	}
	// A generator more than 100 periods behind at the end was not keeping
	// its schedule: the daemon could not serve the offered rate.
	res.behind = res.lastLate > 100*period
	return res
}
