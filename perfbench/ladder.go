package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/replica"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one batch share Batch; Parent links a
// call to the span that caused it (-1: none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Batch  int64  `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int    `json:"events"`
	Failed bool   `json:"failed,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) begin(name string, parent int32, batch int64) int32 {
	start := int64(time.Since(r.base))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Batch: batch, Start: start})
	r.mu.Unlock()
	return id
}

// end closes a span; events is the work it covered (events, calls or
// frames, as the metric it feeds counts them).
func (r *recorder) end(id int32, events int, failed bool) {
	end := int64(time.Since(r.base))
	r.mu.Lock()
	s := &r.spans[id]
	s.End, s.Events, s.Failed = end, events, failed
	r.mu.Unlock()
}

// layerStat is the reduction of one span name.
type layerStat struct {
	count, failed, events int
	dur, self             int64
}

// reduce computes each span name's count, failures, work and self time: a
// span's duration minus the durations of its children.
func (r *recorder) reduce() map[string]*layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.count++
		st.events += s.Events
		st.dur += s.End - s.Start
		st.self += self[i]
		if s.Failed {
			st.failed++
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder measures every layer in process on one workload's inputs.
type ladder struct {
	in     *inputs
	rep    *report
	rec    *recorder
	dir    string
	budget time.Duration // per row group
	batch  int64         // next batch id
	// untracedPath is the blocking path's untraced cost, ns per event;
	// pathRatio the median over adjacent pass pairs of the traced path's
	// summed layer self times over the untraced cost.
	untracedPath, pathRatio float64
}

// unit names one batch's table and WAL key.
func (l *lane) key(kind trace.Kind) string { return trace.EncodeKindProgram(kind, l.program) }

// forBatches calls f for every run batch of every lane, lanes interleaved
// batch by batch as the daemon would see them.
func (ld *ladder) forBatches(f func(l *lane, b *batch)) {
	ld.forBatchesN(-1, f)
}

// forBatchesN is forBatches over at most n batches per lane (n < 0: all).
func (ld *ladder) forBatchesN(n int, f func(l *lane, b *batch)) {
	for i := 0; n < 0 || i < n; i++ {
		more := false
		for _, l := range ld.in.lanes {
			if i < len(l.run) {
				more = true
				f(l, &l.run[i])
			}
		}
		if !more {
			return
		}
	}
}

func (ld *ladder) forWarm(f func(l *lane, b *batch)) {
	for _, l := range ld.in.lanes {
		for i := range l.warm {
			f(l, &l.warm[i])
		}
	}
}

// maxPasses caps how often a row group repeats, which bounds the span file.
const maxPasses = 3

// repeat runs pass until the group's budget is spent or it has run
// maxPasses times, at least once.
func (ld *ladder) repeat(pass func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := pass(); err != nil {
			return err
		}
		if n >= maxPasses || time.Since(start) >= ld.budget {
			return nil
		}
	}
}

// timed records one span around f, with no parent.
func (ld *ladder) timed(name string, events int, f func() bool) {
	ld.batch++
	id := ld.rec.begin(name, -1, ld.batch)
	ok := f()
	ld.rec.end(id, events, !ok)
}

// runLadder is the traced run: every per-layer row, the ladder cross-check
// and, on stream-hop, the comparison with the daemon's own span sampling.
func runLadder(o options, in *inputs, rep *report) error {
	dir := filepath.Join("run", fmt.Sprintf("ladder-%s-%d", in.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ld := &ladder{in: in, rep: rep, rec: newRecorder(), dir: dir}
	groups := []struct {
		name string
		run  func() error
	}{
		{"codec", ld.codec},
		{"core", ld.core},
		{"table", ld.table},
		{"decide", ld.decide},
		{"http", ld.http},
		{"stream", ld.stream},
		{"wal", ld.wal},
		{"replica", ld.replica},
		{"pipeline", ld.pipeline},
	}
	ld.budget = time.Duration(o.seconds) * time.Second / time.Duration(len(groups))
	for _, g := range groups {
		if err := g.run(); err != nil {
			return fmt.Errorf("ladder %s: %w", g.name, err)
		}
	}
	outDir := filepath.Join(o.bin, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "spans-"+in.workload+".jsonl")
	if err := ld.rec.write(path); err != nil {
		return err
	}
	stats := ld.rec.reduce()
	ld.emit(stats)
	rep.note("%d spans written to %s", len(ld.rec.spans), path)
	if in.workload == "stream-hop" {
		return daemonSpans(o, in, rep, stats)
	}
	return nil
}

// perEvent reports a span name's self time per unit of work.
func perEvent(stats map[string]*layerStat, name string) float64 {
	st := stats[name]
	if st == nil || st.events == 0 {
		return 0
	}
	return float64(st.self) / float64(st.events)
}

// emit turns the reduced spans into the ladder's rows.
func (ld *ladder) emit(stats map[string]*layerStat) {
	rows := []struct{ metric, span, unit string }{
		{"trace.validate_ns_per_event", "trace.validate", "ns"},
		{"trace.decode_ns_per_event", "trace.decode", "ns"},
		{"trace.decisions_encode_ns_per_event.plain", "trace.decisions.plain", "ns"},
		{"trace.decisions_encode_ns_per_event.rle", "trace.decisions.rle", "ns"},
		{"trace.decisions_encode_ns_per_event.change", "trace.decisions.change", "ns"},
		{"core.controller_ns_per_event", "core.controller", "ns"},
		{"core.policyset_ns_per_event.selftrain", "core.policyset.selftrain", "ns"},
		{"core.policyset_ns_per_event.probweight", "core.policyset.probweight", "ns"},
		{"server.table.apply_ns_per_event.reactive", "server.table.apply.reactive", "ns"},
		{"server.table.apply_ns_per_event.selftrain", "server.table.apply.selftrain", "ns"},
		{"server.table.apply_ns_per_event.probweight", "server.table.apply.probweight", "ns"},
		{"server.table.apply_frame_ns_per_event", "server.table.apply_frame", "ns"},
		{"server.table.decide_ns.idle", "server.table.decide.idle", "ns"},
		{"server.table.decide_ns.under_ingest", "server.table.decide.under_ingest", "ns"},
		{"server.table.apply_ns_per_event.under_decide", "server.table.apply.under_decide", "ns"},
		{"server.http.ingest_ns_per_batch", "server.http.ingest", "ns"},
		{"server.http.decide_ns", "server.http.decide", "ns"},
		{"server.stream.credit_wait_ns_per_frame", "server.stream.credit_wait", "ns"},
		{"wal.append_ns_per_event", "wal.append", "ns"},
		{"wal.commit_ns.solo", "wal.commit.solo", "ns"},
		{"wal.commit_ns.concurrent2", "wal.commit.concurrent2", "ns"},
		{"replica.apply_ns_per_event", "replica.apply", "ns"},
		{"server.recover.replay_ns_per_event", "server.recover", "ns"},
	}
	for _, r := range rows {
		st := stats[r.span]
		n := 0
		if st != nil {
			n = st.count
			if st.failed > 0 {
				ld.rep.fail(int64(st.failed), "%d of %d %s calls failed", st.failed, st.count, r.span)
			}
		}
		ld.rep.add(r.metric, perEvent(stats, r.span), r.unit, n)
	}
	// The session span covers its whole exchange: its duration, not its
	// self time, is the in-process per-event cost of the stream path.
	if st := stats["server.stream.session"]; st != nil && st.events > 0 {
		ld.rep.add("server.stream.ns_per_event", float64(st.dur)/float64(st.events), "ns", st.count)
	}
	ld.crossCheck(stats)
	for _, st := range stats {
		ld.rep.attempted += int64(st.count)
	}
}

// --- codec -----------------------------------------------------------------

func (ld *ladder) codec() error {
	var evs []trace.Event
	var out []byte
	var frameBytes, plain, rle, change, events int
	exact := true
	err := ld.repeat(func() error {
		ld.forBatches(func(l *lane, b *batch) {
			ld.timed("trace.validate", b.n, func() bool {
				n, err := trace.ValidateFrame(b.frame)
				return err == nil && n == b.n
			})
			ld.timed("trace.decode", b.n, func() bool {
				var err error
				evs, err = trace.DecodeFrameAppend(b.frame, evs[:0])
				return err == nil && len(evs) == b.n
			})
			out = trace.AppendFrame(out[:0], evs)
			ld.timed("trace.decisions.plain", b.n, func() bool {
				out = trace.AppendDecisionsPlain(out[:0], b.want)
				return true
			})
			p := len(out)
			ld.timed("trace.decisions.rle", b.n, func() bool {
				out = trace.AppendDecisionsRLE(out[:0], b.want)
				return true
			})
			r := len(out)
			ld.timed("trace.decisions.change", b.n, func() bool {
				out = trace.AppendDecisionsChanges(out[:0], b.want)
				return true
			})
			if exact {
				frameBytes += len(trace.AppendFrame(nil, evs))
				plain += p
				rle += r
				change += len(out)
				events += b.n
			}
		})
		exact = false
		return nil
	})
	ld.rep.add("trace.frame_bytes_per_event", float64(frameBytes)/float64(events), "B", 0)
	ld.rep.add("trace.decisions_bytes_per_event.plain", float64(plain)/float64(events), "B", 0)
	ld.rep.add("trace.decisions_bytes_per_event.rle", float64(rle)/float64(events), "B", 0)
	ld.rep.add("trace.decisions_bytes_per_event.change", float64(change)/float64(events), "B", 0)
	return err
}

// --- core ------------------------------------------------------------------

// core times the controller alone (the apply floor: one core.Controller
// per program, dense by unit id) and the policy sets, each warmed on the
// warm-up pass before the timed run.
func (ld *ladder) core() error {
	return ld.repeat(func() error {
		ctls := map[string]*core.Controller{}
		instr := map[string]uint64{}
		feed := func(l *lane, b *batch, timed bool) {
			k := l.key(b.kind)
			c := ctls[k]
			if c == nil {
				c = core.New(ld.in.params)
				ctls[k] = c
			}
			run := func() bool {
				in := instr[k]
				for _, ev := range b.events {
					in += uint64(ev.Gap)
					c.OnBranch(ev.Branch, ev.Taken, in)
				}
				instr[k] = in
				return true
			}
			if timed {
				ld.timed("core.controller", b.n, run)
			} else {
				run()
			}
		}
		ld.forWarm(func(l *lane, b *batch) { feed(l, b, false) })
		ld.forBatches(func(l *lane, b *batch) { feed(l, b, true) })

		for _, policy := range []string{core.PolicySelfTrain, core.PolicyProbWeight} {
			sets := map[string]*core.PolicySet{}
			instr := map[string]uint64{}
			var err error
			feed := func(l *lane, b *batch, timed bool) {
				k := l.key(b.kind)
				s := sets[k]
				if s == nil {
					if s, err = core.NewPolicySet(policy, ld.in.params); err != nil {
						return
					}
					sets[k] = s
				}
				run := func() bool {
					in := instr[k]
					for _, ev := range b.events {
						in += uint64(ev.Gap)
						s.OnEvent(ev.Branch, ev.Taken, in)
					}
					instr[k] = in
					return true
				}
				if timed {
					ld.timed("core.policyset."+policy, b.n, run)
				} else {
					run()
				}
			}
			ld.forWarm(func(l *lane, b *batch) { feed(l, b, false) })
			ld.forBatches(func(l *lane, b *batch) { feed(l, b, true) })
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// --- table -----------------------------------------------------------------

// applier feeds batches into a table, tracking each key's instruction count.
type applier struct {
	t     *server.Table
	instr map[string]uint64
	dst   []byte
}

func newApplier(params core.Params, policy string) (*applier, error) {
	t, err := server.NewTablePolicy(params, 16, policy)
	if err != nil {
		return nil, err
	}
	return &applier{t: t, instr: map[string]uint64{}}, nil
}

func (a *applier) apply(l *lane, b *batch) {
	a.dst, a.instr[l.key(b.kind)] = a.t.ApplyBatchKind(l.program, b.kind, b.events, a.instr[l.key(b.kind)], a.dst[:0])
}

func (a *applier) applyFrame(l *lane, b *batch) {
	k := l.key(b.kind)
	a.dst, a.instr[k] = a.t.ApplyFrame(k, b.frame, a.instr[k], a.dst[:0])
}

func (ld *ladder) table() error {
	err := ld.repeat(func() error {
		for _, policy := range []string{core.PolicyReactive, core.PolicySelfTrain, core.PolicyProbWeight} {
			a, err := newApplier(ld.in.params, policy)
			if err != nil {
				return err
			}
			ld.forWarm(a.apply)
			ld.forBatches(func(l *lane, b *batch) {
				ld.timed("server.table.apply."+policy, b.n, func() bool {
					a.apply(l, b)
					return len(a.dst) == b.n
				})
			})
		}
		a, err := newApplier(ld.in.params, core.PolicyReactive)
		if err != nil {
			return err
		}
		ld.forWarm(a.applyFrame)
		ld.forBatches(func(l *lane, b *batch) {
			ld.timed("server.table.apply_frame", b.n, func() bool {
				a.applyFrame(l, b)
				return len(a.dst) == b.n
			})
		})
		return nil
	})
	if err != nil {
		return err
	}

	// Exact counts: allocations per ApplyFrame on a warm table (untraced,
	// so the recorder allocates nothing), and heap per unit after warm-up.
	a, err := newApplier(ld.in.params, core.PolicyReactive)
	if err != nil {
		return err
	}
	ld.forWarm(a.applyFrame)
	ld.forBatches(a.applyFrame)
	batches := 0
	ld.forBatches(func(*lane, *batch) { batches++ })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ld.forBatches(a.applyFrame)
	runtime.ReadMemStats(&m1)
	ld.rep.add("server.table.allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(batches), "count", batches)

	a = nil
	runtime.GC()
	runtime.ReadMemStats(&m0)
	h, err := newApplier(ld.in.params, ld.in.policy)
	if err != nil {
		return err
	}
	units := 0
	ld.forWarm(func(l *lane, b *batch) {
		h.apply(l, b)
		units += b.n
	})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ld.rep.add("server.table.heap_bytes_per_unit", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(units), "B", units)
	runtime.KeepAlive(h)
	return nil
}

// --- decide ----------------------------------------------------------------

// decideGroup is how many Decide calls one span covers.
const decideGroup = 256

// decide times Table.DecideKind on a warm table alone, then with one
// goroutine applying the workload's batches to the same units, timing those
// applies too.
func (ld *ladder) decide() error {
	targets := ld.decideTargets()
	return ld.repeat(func() error {
		a, err := newApplier(ld.in.params, ld.in.policy)
		if err != nil {
			return err
		}
		ld.forWarm(a.apply)
		ld.forBatches(a.apply)
		calls := func(name string) {
			for off := 0; off+decideGroup <= len(targets); off += decideGroup {
				ld.timed(name, decideGroup, func() bool {
					for _, t := range targets[off : off+decideGroup] {
						a.t.DecideKind(t.l.program, t.kind, t.id)
					}
					return true
				})
			}
		}
		calls("server.table.decide.idle")

		done := make(chan struct{})
		go func() {
			defer close(done)
			ld.forBatches(func(l *lane, b *batch) {
				id := ld.rec.begin("server.table.apply.under_decide", -1, 0)
				a.apply(l, b)
				ld.rec.end(id, b.n, len(a.dst) != b.n)
			})
		}()
		for {
			select {
			case <-done:
				return nil
			default:
				calls("server.table.decide.under_ingest")
			}
		}
	})
}

type decideTarget struct {
	l    *lane
	kind trace.Kind
	id   trace.BranchID
}

// decideTargets picks units the run writes, spread over its batches.
func (ld *ladder) decideTargets() []decideTarget {
	var out []decideTarget
	ld.forBatches(func(l *lane, b *batch) {
		for i := 0; i < b.n; i += 16 {
			out = append(out, decideTarget{l: l, kind: b.kind, id: b.events[i].Branch})
		}
	})
	for len(out) < decideGroup {
		out = append(out, out...)
	}
	return out
}

// --- http ------------------------------------------------------------------

// newServer builds an in-process server with the workload's policy and,
// when it runs one, a WAL with its fsync policy under dir.
func (ld *ladder) newServer(dir string, fsync string, replicaMode bool) (*server.Server, *wal.Log, error) {
	var wlog *wal.Log
	if fsync != "" {
		policy, interval, err := wal.ParseSyncPolicy(fsync)
		if err != nil {
			return nil, nil, err
		}
		if wlog, err = wal.Open(wal.Options{
			Dir:        dir,
			ParamsHash: server.ParamsPolicyHash(ld.in.params, ld.in.policy),
			Policy:     policy,
			Interval:   interval,
		}); err != nil {
			return nil, nil, err
		}
	}
	s := server.New(server.Config{Params: ld.in.params, Policy: ld.in.policy, WAL: wlog, Replica: replicaMode})
	return s, wlog, nil
}

func closeLog(l *wal.Log) {
	if l != nil {
		l.Close()
	}
}

// ingestRequest builds POST /v2/ingest for one batch.
func ingestRequest(l *lane, b *batch) *http.Request {
	body := trace.AppendFrame(nil, b.events)
	u := "/v2/ingest?program=" + url.QueryEscape(l.program) + "&kind=" + b.kind.String()
	return httptest.NewRequest(http.MethodPost, u, bytes.NewReader(body))
}

func (ld *ladder) http() error {
	pass := 0
	err := ld.repeat(func() error {
		pass++
		dir := filepath.Join(ld.dir, fmt.Sprintf("http-%d", pass))
		defer os.RemoveAll(dir)
		s, wlog, err := ld.newServer(dir, ld.in.fsync, false)
		if err != nil {
			return err
		}
		defer closeLog(wlog)
		h := s.Handler()
		ingest := func(l *lane, b *batch) bool {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, ingestRequest(l, b))
			return w.Code == http.StatusOK
		}
		ld.forWarm(func(l *lane, b *batch) { ingest(l, b) })
		start := time.Now()
		ld.forBatches(func(l *lane, b *batch) {
			if time.Since(start) > ld.budget {
				return
			}
			req := ingestRequest(l, b)
			w := httptest.NewRecorder()
			ld.timed("server.http.ingest", 1, func() bool {
				h.ServeHTTP(w, req)
				return w.Code == http.StatusOK
			})
		})
		targets := ld.decideTargets()
		for _, t := range targets[:min(len(targets), decideGroup*4)] {
			req := httptest.NewRequest(http.MethodGet, "/v2/decide?program="+url.QueryEscape(t.l.program)+
				"&kind="+t.kind.String()+"&id="+strconv.FormatUint(uint64(t.id), 10), nil)
			w := httptest.NewRecorder()
			ld.timed("server.http.decide", 1, func() bool {
				h.ServeHTTP(w, req)
				return w.Code == http.StatusOK
			})
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Exact count: allocations per ServeHTTP ingest, requests built first.
	dir := filepath.Join(ld.dir, "http-allocs")
	s, wlog, err := ld.newServer(dir, ld.in.fsync, false)
	if err != nil {
		return err
	}
	defer closeLog(wlog)
	h := s.Handler()
	ld.forWarm(func(l *lane, b *batch) { h.ServeHTTP(httptest.NewRecorder(), ingestRequest(l, b)) })
	type call struct {
		req *http.Request
		w   *httptest.ResponseRecorder
	}
	var calls []call
	ld.forBatches(func(l *lane, b *batch) {
		if len(calls) < 256 {
			calls = append(calls, call{ingestRequest(l, b), httptest.NewRecorder()})
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range calls {
		h.ServeHTTP(c.w, c.req)
	}
	runtime.ReadMemStats(&m1)
	ld.rep.add("server.http.ingest_allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(len(calls)), "count", len(calls))
	return nil
}

// --- stream ----------------------------------------------------------------

// stream drives ServeStream on an in-process unix listener through
// DialStream, one session per lane, checking every decision.
func (ld *ladder) stream() error {
	pass := 0
	return ld.repeat(func() error {
		pass++
		dir := filepath.Join(ld.dir, fmt.Sprintf("stream-%d", pass))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		s, wlog, err := ld.newServer(filepath.Join(dir, "wal"), ld.in.fsync, false)
		if err != nil {
			return err
		}
		defer closeLog(wlog)
		sock := filepath.Join(dir, "s.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			return err
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.ServeStream(ln)
		}()
		defer func() {
			ln.Close()
			<-served
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		hash := server.ParamsPolicyHash(ld.in.params, ld.in.policy)
		errs := make([]error, len(ld.in.lanes))
		acks := make([]*ackLog, len(ld.in.lanes))
		var wg sync.WaitGroup
		for i, l := range ld.in.lanes {
			acks[i] = newAckLog()
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = ld.session(ctx, "unix://"+sock, hash, l, acks[i])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := s.WaitStreams(ctx); err != nil {
			return err
		}
		// The cursor check of the end-to-end runs, in process.
		mismatches := 0
		for i, l := range ld.in.lanes {
			for _, kind := range ld.in.kinds {
				want := acks[i].count(kind)
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cursor?program="+url.QueryEscape(l.key(kind)), nil))
				var c server.CursorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &c); err != nil {
					return fmt.Errorf("/v1/cursor: %w", err)
				}
				if c.Events != want {
					mismatches++
				}
			}
		}
		if pass == 1 {
			ld.rep.add("server.stream.cursor_mismatches", float64(mismatches), "count", len(ld.in.lanes)*len(ld.in.kinds))
		}
		return nil
	})
}

// session runs one lane over a stream session: the warm-up, then the run
// under a session span whose children are the sends' blocking times. The
// run stops sending once the group's budget is spent.
func (ld *ladder) session(ctx context.Context, target string, hash uint64, l *lane, acks *ackLog) error {
	st, err := server.DialStream(ctx, target, l.program, hash)
	if err != nil {
		return err
	}
	defer st.Close()
	warm := pumpStream(ctx, st, l.warm, time.Time{}, acks, ld.rep, nil, -1)
	if warm.failed > 0 || warm.err != nil {
		ld.rep.fail(warm.failed, "%s: %d warm-up frames failed", l.program, warm.failed)
		return warm.err
	}
	id := ld.rec.begin("server.stream.session", -1, 0)
	r := pumpStream(ctx, st, l.run, time.Now().Add(ld.budget), acks, ld.rep, ld.rec, id)
	ld.rec.end(id, int(r.events), r.err != nil)
	if r.failed > 0 {
		ld.rep.fail(r.failed, "%s: %d stream frames failed", l.program, r.failed)
	}
	return r.err
}

// --- wal -------------------------------------------------------------------

func (ld *ladder) openLog(dir string, policy wal.SyncPolicy) (*wal.Log, error) {
	return wal.Open(wal.Options{
		Dir:        dir,
		ParamsHash: server.ParamsPolicyHash(ld.in.params, ld.in.policy),
		Policy:     policy,
	})
}

// wal times AppendPayload under the interval policy and Commit under
// fsync=always, alone and with two concurrent committers.
func (ld *ladder) wal() error {
	pass := 0
	var bytesPerEvent float64
	err := ld.repeat(func() error {
		pass++
		dir := filepath.Join(ld.dir, fmt.Sprintf("wal-%d", pass))
		defer os.RemoveAll(dir)
		log, err := ld.openLog(dir, wal.SyncInterval)
		if err != nil {
			return err
		}
		events := 0
		ld.forBatches(func(l *lane, b *batch) {
			ld.timed("wal.append", b.n, func() bool {
				_, err := log.AppendPayload(l.key(b.kind), b.frame)
				return err == nil
			})
			events += b.n
		})
		if err := log.Commit(); err != nil {
			log.Close()
			return err
		}
		bytesPerEvent = float64(log.Stats().AppendedBytes) / float64(events)
		return log.Close()
	})
	if err != nil {
		return err
	}
	ld.rep.add("wal.bytes_per_event", bytesPerEvent, "B", 0)

	var batches []*batch
	var keys []string
	ld.forBatches(func(l *lane, b *batch) {
		batches = append(batches, b)
		keys = append(keys, l.key(b.kind))
	})
	commits := func(name string, committers int) error {
		dir := filepath.Join(ld.dir, "wal-"+name)
		defer os.RemoveAll(dir)
		log, err := ld.openLog(dir, wal.SyncAlways)
		if err != nil {
			return err
		}
		defer log.Close()
		stop := time.Now().Add(ld.budget / 2)
		var wg sync.WaitGroup
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(batches) && time.Now().Before(stop); i += committers {
					if _, err := log.AppendPayload(keys[i], batches[i].frame); err != nil {
						ld.rep.fail(1, "wal append: %v", err)
						return
					}
					id := ld.rec.begin(name, -1, int64(i))
					err := log.Commit()
					ld.rec.end(id, 1, err != nil)
				}
			}()
		}
		wg.Wait()
		return nil
	}
	if err := commits("wal.commit.solo", 1); err != nil {
		return err
	}
	return commits("wal.commit.concurrent2", 2)
}

// --- replica and recovery --------------------------------------------------

// replica ships a primary log to a follower feeding a replica-mode server,
// timing ApplyReplicated and counting shipped bytes, then times recovery
// of a server over the replica's log.
func (ld *ladder) replica() error {
	pass := 0
	var shipPerEvent float64
	err := ld.repeat(func() error {
		pass++
		dir := filepath.Join(ld.dir, fmt.Sprintf("replica-%d", pass))
		defer os.RemoveAll(dir)
		plog, err := ld.openLog(filepath.Join(dir, "primary"), wal.SyncInterval)
		if err != nil {
			return err
		}
		defer plog.Close()
		events := 0
		var appendErr error
		ld.forBatches(func(l *lane, b *batch) {
			if _, err := plog.AppendPayload(l.key(b.kind), b.frame); err != nil && appendErr == nil {
				appendErr = err
			}
			events += b.n
		})
		if appendErr != nil {
			return appendErr
		}
		if err := plog.Sync(); err != nil {
			return err
		}
		rs, rlog, err := ld.newServer(filepath.Join(dir, "replica"), "interval", true)
		if err != nil {
			return err
		}
		sh := replica.NewShipper(replica.ShipperConfig{Log: plog})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rlog.Close()
			return err
		}
		go sh.Serve(ln)
		f := replica.StartFollower(replica.FollowerConfig{
			Addr:       ln.Addr().String(),
			ParamsHash: server.ParamsPolicyHash(ld.in.params, ld.in.policy),
			NextSeq:    rlog.NextSeq,
			Apply: func(program string, evs []trace.Event, traceID uint64) error {
				id := ld.rec.begin("replica.apply", -1, 0)
				err := rs.ApplyReplicated(program, evs, traceID)
				ld.rec.end(id, len(evs), err != nil)
				return err
			},
		})
		deadline := time.Now().Add(60 * time.Second)
		for rlog.NextSeq() < plog.NextSeq() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		caughtUp := rlog.NextSeq() >= plog.NextSeq()
		f.Seal()
		sh.Close()
		_, shipped := sh.Shipped()
		shipPerEvent = float64(shipped) / float64(events)
		if err := rlog.Close(); err != nil {
			return err
		}
		if !caughtUp {
			return fmt.Errorf("follower applied %d of %d records within 60s", rlog.NextSeq(), plog.NextSeq())
		}

		// Recovery: a fresh server replays the replica's whole log.
		s, log, err := ld.newServer(filepath.Join(dir, "replica"), "interval", false)
		if err != nil {
			return err
		}
		defer log.Close()
		id := ld.rec.begin("server.recover", -1, 0)
		res, err := s.Recover()
		ld.rec.end(id, int(res.ReplayedEvents), err != nil || int(res.ReplayedEvents) != events)
		return err
	})
	ld.rep.add("replica.ship_bytes_per_event", shipPerEvent, "B", 0)
	return err
}

// --- pipeline and cross-check ----------------------------------------------

// pathStage is one call on a workload's blocking path.
type pathStage struct {
	name string
	call func(l *lane, b *batch) bool
}

// pathTolerance is how far the traced blocking path's summed layer self
// times may stray from the untraced in-process cost of the same calls.
const pathTolerance = 0.15

// blockingPath returns the calls the daemon makes per batch on this
// workload, in order, over fresh state.
func (ld *ladder) blockingPath(dir string) ([]pathStage, func(), error) {
	a, err := newApplier(ld.in.params, ld.in.policy)
	if err != nil {
		return nil, nil, err
	}
	var log *wal.Log
	if ld.in.fsync != "" {
		policy, _, err := wal.ParseSyncPolicy(ld.in.fsync)
		if err != nil {
			return nil, nil, err
		}
		if log, err = ld.openLog(dir, policy); err != nil {
			return nil, nil, err
		}
	}
	cleanup := func() {
		closeLog(log)
		os.RemoveAll(dir)
	}
	ld.forWarm(a.apply)
	var evs []trace.Event
	var out []byte
	var stages []pathStage
	if ld.in.stream {
		stages = append(stages, pathStage{"trace.validate", func(l *lane, b *batch) bool {
			n, err := trace.ValidateFrame(b.frame)
			return err == nil && n == b.n
		}})
	} else {
		stages = append(stages, pathStage{"trace.decode", func(l *lane, b *batch) bool {
			var err error
			evs, err = trace.DecodeFrameAppend(b.frame, evs[:0])
			return err == nil
		}})
	}
	if log != nil {
		stages = append(stages,
			pathStage{"wal.append", func(l *lane, b *batch) bool {
				_, err := log.AppendPayload(l.key(b.kind), b.frame)
				return err == nil
			}},
			pathStage{"wal.commit", func(l *lane, b *batch) bool { return log.Commit() == nil }})
	}
	if ld.in.stream {
		stages = append(stages, pathStage{"server.table.apply_frame", func(l *lane, b *batch) bool {
			a.applyFrame(l, b)
			return len(a.dst) == b.n
		}})
	} else {
		stages = append(stages, pathStage{"server.table.apply", func(l *lane, b *batch) bool {
			k := l.key(b.kind)
			a.dst, a.instr[k] = a.t.ApplyBatchKind(l.program, b.kind, evs, a.instr[k], a.dst[:0])
			return len(a.dst) == b.n
		}})
	}
	stages = append(stages, pathStage{"trace.decisions.plain", func(l *lane, b *batch) bool {
		out = trace.AppendDecisionsPlain(out[:0], a.dst)
		return true
	}})
	return stages, cleanup, nil
}

// pipeline runs the blocking path traced (a root span per batch, a child
// per call) and untraced, in adjacent pairs of passes on fresh state, so
// each comparison sees the same host conditions.
func (ld *ladder) pipeline() error {
	var untraced, ratios []float64
	limit := time.Now().Add(2 * ld.budget)
	for pair := 0; pair < 3 || (time.Now().Before(limit) && pair < 20); pair++ {
		var sum, cost float64
		for _, traced := range []bool{true, false} {
			dir := filepath.Join(ld.dir, fmt.Sprintf("path-%d-%v", pair, traced))
			stages, cleanup, err := ld.blockingPath(dir)
			if err != nil {
				return err
			}
			first := len(ld.rec.spans)
			events := 0
			start := time.Now()
			ld.forBatchesN(ld.pathBatches(), func(l *lane, b *batch) {
				events += b.n
				if !traced {
					for _, s := range stages {
						s.call(l, b)
					}
					return
				}
				ld.batch++
				root := ld.rec.begin("pipeline.batch", -1, ld.batch)
				ok := true
				for _, s := range stages {
					id := ld.rec.begin("pipeline."+s.name, root, ld.batch)
					good := s.call(l, b)
					ld.rec.end(id, b.n, !good)
					ok = ok && good
				}
				ld.rec.end(root, b.n, !ok)
			})
			elapsed := time.Since(start)
			cleanup()
			if !traced {
				cost = float64(elapsed.Nanoseconds()) / float64(events)
				continue
			}
			// This pass's spans are contiguous: only this goroutine
			// records during the pipeline.
			for _, sp := range ld.rec.spans[first:] {
				if sp.Parent >= 0 {
					sum += float64(sp.End - sp.Start)
				}
			}
			sum /= float64(events)
		}
		untraced = append(untraced, cost)
		ratios = append(ratios, sum/cost)
	}
	ld.untracedPath = median(untraced)
	ld.pathRatio = median(ratios)
	return nil
}

// pathBatches caps the blocking path's batches per lane where every batch
// waits for an fsync, so a pass stays within a fraction of a second.
func (ld *ladder) pathBatches() int {
	if ld.in.fsync == "always" {
		return 100
	}
	return -1
}

// crossCheck compares the summed layer self times along the blocking path
// with the untraced cost of the same calls, and with the entry point.
func (ld *ladder) crossCheck(stats map[string]*layerStat) {
	var sum float64
	for name, st := range stats {
		if len(name) > len("pipeline.") && name[:len("pipeline.")] == "pipeline." && name != "pipeline.batch" && st.events > 0 {
			v := float64(st.self) / float64(st.events)
			sum += v
			ld.rep.add("ladder.path."+name[len("pipeline."):]+"_ns_per_event", v, "ns", st.count)
		}
	}
	ld.rep.add("ladder.path_sum_ns_per_event", sum, "ns", 0)
	ld.rep.add("ladder.path_untraced_ns_per_event", ld.untracedPath, "ns", 0)
	ld.rep.add("ladder.path_sum_over_untraced", ld.pathRatio, "ratio", 0)
	ld.rep.attempted++
	if ld.pathRatio < 1-pathTolerance || ld.pathRatio > 1+pathTolerance {
		ld.rep.fail(1, "ladder cross-check: blocking-path self times sum to %.3f of the untraced path's cost (tolerance %.0f%%)",
			ld.pathRatio, pathTolerance*100)
	} else {
		ld.rep.note("ladder cross-check passed: blocking-path layers sum to %.0f ns/event, untraced path %.0f ns/event (paired ratio %.3f, tolerance %.0f%%)",
			sum, ld.untracedPath, ld.pathRatio, pathTolerance*100)
	}
	if st := stats["pipeline.batch"]; st != nil && st.events > 0 {
		ld.rep.add("ladder.tracing_overhead_frac", float64(st.dur)/float64(st.events)/ld.untracedPath-1, "ratio", 0)
	}
	entry := ""
	var entryCost float64
	if ld.in.stream {
		entry = "server.stream.ns_per_event"
		if st := stats["server.stream.session"]; st != nil && st.events > 0 {
			entryCost = float64(st.dur) / float64(st.events)
		}
	} else if st := stats["server.http.ingest"]; st != nil && st.count > 0 {
		entry = "server.http.ingest_ns_per_batch"
		events := 0
		ld.forBatches(func(_ *lane, b *batch) { events += b.n })
		batches := 0
		ld.forBatches(func(*lane, *batch) { batches++ })
		entryCost = float64(st.self) / float64(st.count) * float64(batches) / float64(events)
	}
	if entryCost > 0 {
		ld.rep.add("ladder.path_share_of_entry", sum/entryCost, "ratio", 0)
		ld.rep.note("the blocking path explains %.0f%% of the in-process entry point's cost (%s, %.0f ns/event)",
			sum/entryCost*100, entry, entryCost)
	}
}
