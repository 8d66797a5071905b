// Command reactived is the networked speculation-control daemon: it hosts a
// table of reactive controllers, one per program (internal/server), ingests
// batches of branch-outcome events over HTTP in the internal/trace frame
// format, serves classification decisions back, snapshots table state to
// disk with atomic rename, and restores it on start.
//
// Usage:
//
//	reactived [flags]
//
// Flags:
//
//	-addr a               listen address (default 127.0.0.1:8344; use :0 for a random port)
//	-addr-file f          write the bound address to f once listening (for scripts)
//	-stream-addr a        also accept raw-TCP streaming ingest sessions on this address
//	-stream-addr-file f   write the bound stream address to f once listening
//	-stream-unix p        also accept streaming ingest sessions on a unix-domain
//	                      socket at path p (co-located producers skip the TCP stack;
//	                      a stale socket file from a crashed daemon is removed if
//	                      nothing is listening, and the file is unlinked on shutdown)
//	-stream-unix-file f   write the stream socket target (unix://p) to f once listening
//	-param-scale k        divide the paper's Table 2 parameters by k (default 10)
//	-policy p             speculation policy every table entry runs: reactive
//	                      (the paper's FSM, default), selftrain (classify once
//	                      after the monitor window, never revisit), or
//	                      probweight (EWMA-weighted probabilistic selection).
//	                      The policy is mixed into the params hash, so clients
//	                      pinned to another policy's decisions are rejected.
//	-kinds k1,k2          speculation kinds to serve (default all: branch,
//	                      value, memdep, tlspec); requests for other kinds are
//	                      rejected with the unsupported_kind code
//	-snapshot-dir d       enable snapshot/restore under directory d
//	-snapshot-interval t  periodic snapshot interval (default 30s; 0 = only on shutdown)
//	-wal-dir d            enable the write-ahead event log under directory d
//	-wal-fsync p          WAL fsync policy: always, interval[=dur], or never (default interval)
//	-wal-segment-bytes n  WAL segment rotation threshold (default 64 MiB)
//	-replication-addr a   serve WAL replication to followers on this address (requires -wal-dir)
//	-replication-addr-file f  write the bound replication address to f once listening
//	-replica-of a         run as a read-only replica of the primary's replication
//	                      listener at a (requires -wal-dir)
//	-debug-addr a         serve net/http/pprof, expvar and /debug/spans on a
//	                      separate listener
//	-debug-addr-file f    write the bound debug address to f once listening
//	-trace-spans f        append sampled end-to-end batch spans to f as JSONL
//	                      (analyze with `reactivespec spans`)
//	-trace-sample n       trace 1 in n ingest batches (0 disables tracing;
//	                      -trace-spans alone implies 1)
//
// With -wal-dir, every ingested frame is appended to a segmented write-ahead
// log before it is applied, and startup becomes restore-snapshot → replay
// WAL tail → resume: a SIGKILL loses at most the tail the fsync policy
// permits, and recovery reproduces byte-identical decisions for everything
// durably logged. Snapshots anchor the log — segments wholly covered by the
// latest durable snapshot are deleted.
//
// Replication: a primary started with -replication-addr ships its WAL to
// attached followers (only records it has fsynced). A daemon started with
// -replica-of runs read-only — client ingest is rejected with the read_only
// code while every shipped record flows through the same log-before-apply
// path as primary ingest — and is promoted to a writable primary by SIGUSR1
// or POST /v1/promote, which seals replication first so no record can land
// after the flip. GET /v1/cursor reports per-program applied-event counts,
// the resume point failover clients re-send from.
//
// Endpoints: POST /v2/ingest, GET /v2/decide, GET /v1/info, POST /v1/stream
// (upgrade to a streaming ingest session), GET /healthz, GET /metrics,
// POST /v1/snapshot, POST /v1/promote, GET /v1/cursor; the retired
// /v1/ingest and /v1/decide answer 410 naming their /v2 routes. Streaming
// sessions are also reachable without HTTP via
// -stream-addr. With -debug-addr, a second listener serves the runtime
// profiling surface — GET /debug/pprof/ (CPU, heap, goroutine, block
// profiles) and GET /debug/vars (expvar, including a "reactived" variable
// summarizing table totals and WAL position) — kept off the serving address
// so profiling traffic can be firewalled separately. SIGINT/SIGTERM drain
// in-flight batches, take a final snapshot (when -snapshot-dir is set), and
// exit 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/replica"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reactived:", err)
		os.Exit(1)
	}
}

// expvarServer points /debug/vars at the daemon currently running in this
// process. expvar.Publish is once-per-name for the process lifetime, while
// tests call run repeatedly, so the published Func dereferences this pointer
// instead of capturing one server.
var expvarServer atomic.Pointer[server.Server]

// replicationVars is the replication machinery the expvar block reports on;
// either side may be nil.
type replicationVars struct {
	follower *replica.Follower
	shipper  *replica.Shipper
}

var expvarReplication atomic.Pointer[replicationVars]

// debugTracer points /debug/spans at the tracer of the daemon currently
// running in this process (same re-run-safe shape as expvarServer); nil when
// tracing is off.
var debugTracer atomic.Pointer[obs.Tracer]

var debugSpansOnce sync.Once

// publishDebugSpans registers /debug/spans on the default mux once per
// process: a JSONL dump of the tracer's retained span ring, newest window of
// DefaultTraceRing spans, in the same byte-deterministic encoding as the
// -trace-spans file.
func publishDebugSpans() {
	debugSpansOnce.Do(func() {
		http.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
			t := debugTracer.Load()
			if t == nil {
				http.Error(w, "span tracing disabled (start with -trace-sample)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			t.WriteJSONL(w)
		})
	})
}

// publishExpvars registers the "reactived" expvar once per process.
func publishExpvars() {
	if expvar.Get("reactived") != nil {
		return
	}
	expvar.Publish("reactived", expvar.Func(func() any {
		s := expvarServer.Load()
		if s == nil {
			return nil
		}
		total := s.Table().Metrics()
		v := map[string]any{
			"events":       total.Events,
			"instructions": total.Instrs,
			"misspec_rate": total.MisspecRate(),
			"entries":      total.Entries,
			"draining":     s.Draining(),
			"mode":         s.Mode(),
		}
		if rv := expvarReplication.Load(); rv != nil {
			repl := map[string]any{}
			if f := rv.follower; f != nil {
				errMsg := ""
				if err := f.Err(); err != nil {
					errMsg = err.Error()
				}
				repl["follower"] = map[string]any{
					"state":        f.State(),
					"last_applied": f.LastApplied(),
					"error":        errMsg,
				}
			}
			if sh := rv.shipper; sh != nil {
				records, bytes := sh.Shipped()
				shipVars := map[string]any{
					"sessions":        sh.Sessions(),
					"shipped_records": records,
					"shipped_bytes":   bytes,
				}
				if lagRecords, lagSeconds, ok := sh.FollowerLag(""); ok {
					shipVars["follower_lag_records"] = lagRecords
					shipVars["follower_lag_seconds"] = lagSeconds
				}
				repl["shipper"] = shipVars
			}
			v["replication"] = repl
		}
		if l := s.WAL(); l != nil {
			st := l.Stats()
			v["wal"] = map[string]any{
				"dir":              l.Dir(),
				"policy":           l.Policy().String(),
				"appended_records": st.AppendedRecords,
				"appended_bytes":   st.AppendedBytes,
				"fsyncs":           st.Fsyncs,
				"segments":         st.Segments,
				"oldest_seq":       st.OldestSeq,
				"next_seq":         st.NextSeq,
			}
		}
		return v
	}))
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reactived", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (use :0 for a random port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	streamAddr := fs.String("stream-addr", "",
		"also accept raw-TCP streaming ingest sessions on this address (use :0 for a random port)")
	streamAddrFile := fs.String("stream-addr-file", "",
		"write the bound stream address to this file once listening")
	streamUnix := fs.String("stream-unix", "",
		"also accept streaming ingest sessions on a unix-domain socket at this path")
	streamUnixFile := fs.String("stream-unix-file", "",
		"write the stream socket target (unix://path) to this file once listening")
	paramScale := fs.Uint64("param-scale", 10, "divide the paper's Table 2 parameters by this factor")
	policyFlag := fs.String("policy", core.PolicyReactive,
		"speculation policy every table entry runs: "+strings.Join(core.PolicyNames(), ", "))
	kindsFlag := fs.String("kinds", "",
		"comma-separated speculation kinds to serve (default all: "+strings.Join(trace.KindNames(), ",")+")")
	snapshotDir := fs.String("snapshot-dir", "", "enable snapshot/restore under this directory")
	snapshotInterval := fs.Duration("snapshot-interval", 30*time.Second,
		"periodic snapshot interval (0 = only on shutdown)")
	walDir := fs.String("wal-dir", "", "enable the write-ahead event log under this directory")
	walFsync := fs.String("wal-fsync", "interval",
		"WAL fsync policy: always, interval[=duration], or never")
	walSegmentBytes := fs.Int64("wal-segment-bytes", wal.DefaultSegmentBytes,
		"WAL segment rotation threshold in bytes")
	replicationAddr := fs.String("replication-addr", "",
		"serve WAL replication to followers on this address (requires -wal-dir; use :0 for a random port)")
	replicationAddrFile := fs.String("replication-addr-file", "",
		"write the bound replication address to this file once listening")
	replicaOf := fs.String("replica-of", "",
		"run as a read-only replica of the primary's replication listener at this address (requires -wal-dir)")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof and expvar on this separate listener (use :0 for a random port)")
	debugAddrFile := fs.String("debug-addr-file", "",
		"write the bound debug address to this file once listening")
	traceSpans := fs.String("trace-spans", "",
		"append sampled end-to-end batch spans to this file as JSONL")
	traceSample := fs.Int("trace-sample", 0,
		"trace 1 in n ingest batches (0 disables tracing; -trace-spans alone implies 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(out, "reactived: "+format+"\n", a...)
	}
	params := core.DefaultParams().Scaled(*paramScale)

	// Validate the policy and kind list before anything touches disk or the
	// network; server.New would panic on an unknown policy.
	if !core.ValidPolicy(*policyFlag) {
		return fmt.Errorf("unknown -policy %q (registered: %s)",
			*policyFlag, strings.Join(core.PolicyNames(), ", "))
	}
	var kinds []trace.Kind
	if *kindsFlag != "" {
		for _, name := range strings.Split(*kindsFlag, ",") {
			k, err := trace.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("parsing -kinds: %w", err)
			}
			kinds = append(kinds, k)
		}
	}

	// Replication in either role rides on the WAL: the shipper serves it,
	// the follower logs into it before applying.
	if *replicaOf != "" && *walDir == "" {
		return fmt.Errorf("-replica-of requires -wal-dir (the replica logs shipped records before applying them)")
	}
	if *replicationAddr != "" && *walDir == "" {
		return fmt.Errorf("-replication-addr requires -wal-dir (replication ships the write-ahead log)")
	}

	// The span tracer rides every layer (server, WAL, replication), so it is
	// built first; a nil tracer is the off switch — each instrumented call
	// site pays one predictable nil-check branch.
	sampleN := *traceSample
	if *traceSpans != "" && sampleN == 0 {
		sampleN = 1
	}
	var tracer *obs.Tracer
	if sampleN > 0 {
		node := "primary"
		if *replicaOf != "" {
			node = "replica"
		}
		tracer = obs.NewTracer(node, sampleN)
		if *traceSpans != "" {
			f, err := os.OpenFile(*traceSpans, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("opening -trace-spans: %w", err)
			}
			defer f.Close()
			tracer.SetOutput(f)
			defer tracer.Close()
		}
		logf("span tracing enabled (node=%s, 1 in %d batches, spans=%s)",
			tracer.Node(), sampleN, *traceSpans)
	}
	debugTracer.Store(tracer)

	var wlog *wal.Log
	if *walDir != "" {
		policy, interval, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return fmt.Errorf("parsing -wal-fsync: %w", err)
		}
		wlog, err = wal.Open(wal.Options{
			Dir:          *walDir,
			ParamsHash:   server.ParamsPolicyHash(params, *policyFlag),
			SegmentBytes: *walSegmentBytes,
			Policy:       policy,
			Interval:     interval,
			Logf:         logf,
			Trace:        tracer,
		})
		if err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		defer wlog.Close()
		logf("wal enabled under %s (fsync=%s)", *walDir, policy)
	}

	s := server.New(server.Config{
		Params:      params,
		Policy:      *policyFlag,
		Kinds:       kinds,
		SnapshotDir: *snapshotDir,
		WAL:         wlog,
		Replica:     *replicaOf != "",
		Logf:        logf,
		Trace:       tracer,
	})
	rec, err := s.Recover()
	if err != nil {
		return fmt.Errorf("recovering state: %w", err)
	}
	if !rec.SnapshotRestored && *snapshotDir != "" {
		logf("no snapshot under %s; starting fresh", *snapshotDir)
	}
	if wlog != nil {
		logf("wal: replayed %d records (%d events); next seq %d",
			rec.ReplayedRecords, rec.ReplayedEvents, wlog.NextSeq())
	}

	// Replication starts only after recovery: the WAL's numbering is final
	// by now (AlignSeq has run), so both the shipper's retained range and
	// the follower's resume point are exact.
	var rvars replicationVars
	var followerDone <-chan struct{}
	if *replicationAddr != "" {
		sh := replica.NewShipper(replica.ShipperConfig{Log: wlog, Logf: logf, Trace: tracer})
		sh.RegisterMetrics(s.Registry())
		rln, err := net.Listen("tcp", *replicationAddr)
		if err != nil {
			return fmt.Errorf("listening on -replication-addr: %w", err)
		}
		if *replicationAddrFile != "" {
			if err := os.WriteFile(*replicationAddrFile, []byte(rln.Addr().String()), 0o644); err != nil {
				rln.Close()
				return fmt.Errorf("writing -replication-addr-file: %w", err)
			}
		}
		logf("replication listener on %s", rln.Addr())
		go sh.Serve(rln)
		defer sh.Close()
		rvars.shipper = sh
	}
	if *replicaOf != "" {
		f := replica.StartFollower(replica.FollowerConfig{
			Addr:       *replicaOf,
			ParamsHash: server.ParamsPolicyHash(params, *policyFlag),
			NextSeq:    wlog.NextSeq,
			Apply:      s.ApplyReplicated,
			Logf:       logf,
			Trace:      tracer,
		})
		s.SetSealFunc(f.Seal)
		f.RegisterMetrics(s.Registry())
		defer f.Seal()
		followerDone = f.Done()
		rvars.follower = f
		logf("replica mode: following %s from wal seq %d (SIGUSR1 or POST /v1/promote to promote)",
			*replicaOf, wlog.NextSeq())
	}
	expvarReplication.Store(&rvars)

	// SIGUSR1 promotes a replica in place, for failover drivers that only
	// hold a pid.
	promoteCh := make(chan os.Signal, 1)
	signal.Notify(promoteCh, syscall.SIGUSR1)
	defer signal.Stop(promoteCh)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	logf("listening on %s (param scale 1/%d, policy %s, kinds %s)",
		bound, *paramScale, s.Table().Policy(), strings.Join(s.KindNames(), ","))

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// The raw stream listener shares the server's session loop with the
	// POST /v1/stream upgrade path; only the transport differs.
	if *streamAddr != "" {
		sln, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			return fmt.Errorf("listening on -stream-addr: %w", err)
		}
		defer sln.Close()
		if *streamAddrFile != "" {
			if err := os.WriteFile(*streamAddrFile, []byte(sln.Addr().String()), 0o644); err != nil {
				return fmt.Errorf("writing -stream-addr-file: %w", err)
			}
		}
		logf("stream listener on %s", sln.Addr())
		go func() {
			// The accept error is expected at shutdown when the deferred
			// Close tears the listener down.
			s.ServeStream(sln)
		}()
	}

	// The unix-domain stream listener: same session loop again, minus the
	// TCP stack, for producers on the same host.
	if *streamUnix != "" {
		uln, err := listenUnixStream(*streamUnix)
		if err != nil {
			return fmt.Errorf("listening on -stream-unix: %w", err)
		}
		// *net.UnixListener unlinks the socket file on Close, so the
		// deferred Close doubles as the graceful-shutdown cleanup.
		defer uln.Close()
		if *streamUnixFile != "" {
			if err := os.WriteFile(*streamUnixFile, []byte("unix://"+*streamUnix), 0o644); err != nil {
				return fmt.Errorf("writing -stream-unix-file: %w", err)
			}
		}
		logf("stream listener on unix:%s", *streamUnix)
		go func() {
			s.ServeStream(uln)
		}()
	}

	// The runtime profiling surface: pprof and expvar register themselves
	// on the default mux, which we serve on a separate listener so debug
	// traffic never shares a port with ingest.
	if *debugAddr != "" {
		expvarServer.Store(s)
		publishExpvars()
		publishDebugSpans()
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("listening on -debug-addr: %w", err)
		}
		defer dln.Close()
		if *debugAddrFile != "" {
			if err := os.WriteFile(*debugAddrFile, []byte(dln.Addr().String()), 0o644); err != nil {
				return fmt.Errorf("writing -debug-addr-file: %w", err)
			}
		}
		logf("debug listener on %s (/debug/pprof/, /debug/vars, /debug/spans)", dln.Addr())
		go func() {
			// http.DefaultServeMux carries the pprof and expvar
			// handlers; the error is expected at shutdown when the
			// deferred Close tears the listener down.
			http.Serve(dln, nil)
		}()
	}

	snapTick := make(<-chan time.Time)
	var ticker *time.Ticker
	if *snapshotDir != "" && *snapshotInterval > 0 {
		ticker = time.NewTicker(*snapshotInterval)
		defer ticker.Stop()
		snapTick = ticker.C
	}

	for {
		select {
		case <-snapTick:
			if _, err := s.SnapshotNow(); err != nil {
				logf("periodic snapshot failed: %v", err)
			}
		case <-promoteCh:
			if res, err := s.Promote(); err != nil {
				logf("promote (SIGUSR1): %v", err)
			} else {
				logf("promoted to primary at wal seq %d (SIGUSR1)", res.LastAppliedSeq)
			}
		case <-followerDone:
			// The follower stops for good on a permanent error (mismatch,
			// compaction gap, divergence) — surface it and exit rather than
			// serving a replica that silently stopped replicating. A sealed
			// follower (promotion) reports no error; keep serving.
			if rvars.follower.Err() != nil {
				return fmt.Errorf("replication failed: %w", rvars.follower.Err())
			}
			followerDone = nil
		case err := <-serveErr:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case <-ctx.Done():
			logf("shutting down: draining in-flight batches and stream sessions")
			s.BeginDrain()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			// Hijacked stream connections are outside http.Server's
			// bookkeeping, so Shutdown alone would not wait for them:
			// WaitStreams covers the sessions BeginDrain just nudged.
			if err := s.WaitStreams(shutdownCtx); err != nil {
				logf("shutdown: %v", err)
			}
			err := hs.Shutdown(shutdownCtx)
			cancel()
			if err != nil {
				logf("shutdown: %v", err)
			}
			if *snapshotDir != "" {
				if _, err := s.SnapshotNow(); err != nil {
					return fmt.Errorf("final snapshot: %w", err)
				}
				logf("final snapshot written")
			}
			return nil
		}
	}
}

// listenUnixStream binds the -stream-unix listener at path. A socket file
// left behind by a crashed daemon (SIGKILL skips the unlink) would make a
// plain Listen fail with "address already in use", so on that failure the
// pre-existing file is probed: if something answers a dial the path is
// genuinely taken and the bind error stands; if nothing is listening the
// stale file is removed and the bind retried, so a restart reuses its path
// without manual cleanup. Files that are not sockets are never touched.
func listenUnixStream(path string) (net.Listener, error) {
	ln, err := net.Listen("unix", path)
	if err == nil {
		return ln, nil
	}
	fi, statErr := os.Lstat(path)
	if statErr != nil || fi.Mode()&os.ModeSocket == 0 {
		return nil, err
	}
	if probe, dialErr := net.DialTimeout("unix", path, 500*time.Millisecond); dialErr == nil {
		probe.Close()
		return nil, fmt.Errorf("socket is in use by a live listener: %w", err)
	}
	if rmErr := os.Remove(path); rmErr != nil {
		return nil, fmt.Errorf("removing stale socket: %w", rmErr)
	}
	return net.Listen("unix", path)
}
