package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/replica"
	"reactivespec/internal/server"
	"reactivespec/internal/wal"
)

// failoverPair is an in-process primary/replica pair wired exactly as two
// reactived daemons would be: WAL-backed servers, a shipper on the primary's
// log, a follower feeding the replica through ApplyReplicated.
type failoverPair struct {
	primaryURL string
	replicaURL string
}

// startFailoverPair starts the pair. The primary crashes when its
// crashAtIngest-th POST /v1/ingest arrives: that request is cut off
// unanswered and unapplied while the crash runs, so the crash always lands
// mid-run however fast the run goes, and requests already in flight on
// other connections race it the way they race a real SIGKILL.
func startFailoverPair(t *testing.T, crashAtIngest int64) *failoverPair {
	t.Helper()
	params := core.DefaultParams().Scaled(10) // reactiveload's default -param-scale
	hash := server.ParamsHash(params)

	pl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: hash, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ps := server.New(server.Config{Params: params, WAL: pl})
	var ingests atomic.Int64
	crash := make(chan struct{})
	primary := ps.Handler()
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/ingest" && ingests.Add(1) == crashAtIngest {
			close(crash)
			panic(http.ErrAbortHandler)
		}
		primary.ServeHTTP(w, r)
	}))
	sh := replica.NewShipper(replica.ShipperConfig{Log: pl, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)

	rl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: hash, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rs := server.New(server.Config{Params: params, WAL: rl, Replica: true, Logf: t.Logf})
	rts := httptest.NewServer(rs.Handler())
	f := replica.StartFollower(replica.FollowerConfig{
		Addr:       ln.Addr().String(),
		ParamsHash: hash,
		NextSeq:    rl.NextSeq,
		Apply:      rs.ApplyReplicated,
		Logf:       t.Logf,
	})
	rs.SetSealFunc(f.Seal)

	// kill crashes the primary: HTTP front end, shipper, listener.
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			pts.CloseClientConnections()
			pts.Close()
			sh.Close()
			ln.Close()
		})
	}
	// Closing the primary waits for its in-flight handlers, the aborted one
	// included, so the crash runs on its own goroutine; cleanup stops it
	// when the crash never came and waits for it (killOnce) when it did.
	done := make(chan struct{})
	go func() {
		select {
		case <-crash:
			kill()
		case <-done:
		}
	}()
	t.Cleanup(func() {
		close(done)
		rts.Close()
		f.Seal()
		rl.Close()
		kill()
		pl.Close()
	})
	return &failoverPair{primaryURL: pts.URL, replicaURL: rts.URL}
}

// TestRunFailover drives -failover end to end in-process, on the external-
// crash path (-failover-pid 0): the primary dies without drain after a few
// acked batches, the run promotes the replica, resumes each worker from the
// replica's cursor, and every decision — pre-crash, re-sent overlap, and
// post-failover tail — verifies against the absolute-index mirror; a batch
// the replica holds but whose ack died with the primary verifies by the
// unit states it left.
func TestRunFailover(t *testing.T) {
	// Two workers of 24 batches each: the crash arrives with the 7th
	// batch, after a few acked batches per worker.
	p := startFailoverPair(t, 7)

	var out bytes.Buffer
	err := run([]string{
		"-addr", p.primaryURL,
		"-failover", p.replicaURL,
		"-bench", "gzip",
		"-events", "6000",
		"-concurrency", "2",
		"-batch", "256",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if rep.Mode != "failover" || !rep.Verified {
		t.Fatalf("mode %q verified %v, want failover/verified: %+v", rep.Mode, rep.Verified, rep)
	}
	if rep.Failover == nil || !rep.Failover.Promoted {
		t.Fatalf("no promotion in report: %+v", rep.Failover)
	}
	t.Logf("failover: %+v", *rep.Failover)
	if rep.Failover.WorkersResumed == 0 {
		t.Fatalf("no worker resumed on the replica: %+v", rep.Failover)
	}
	// Every unique event index got exactly one verified decision: the tally
	// covers the full stream despite the crash and the re-sent overlap.
	if want := uint64(2 * 6000); rep.Events != want {
		t.Fatalf("events = %d, want %d", rep.Events, want)
	}
	var verdictTotal uint64
	for _, n := range rep.Verdicts {
		verdictTotal += n
	}
	if verdictTotal != rep.Events {
		t.Fatalf("verdict counts sum to %d, want %d", verdictTotal, rep.Events)
	}
}

// TestRunFailoverRejectsPrimaryTarget pins the up-front target check: a
// -failover URL pointing at a daemon that is not a replica fails before any
// event is sent.
func TestRunFailoverRejectsPrimaryTarget(t *testing.T) {
	base := testDaemon(t)
	err := run([]string{"-addr", base, "-failover", base}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("err = %v, want not-a-replica rejection", err)
	}
}

func TestRunFailoverFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "http://x", "-failover-pid", "1"},                              // pid without -failover
		{"-addr", "http://x", "-failover-after-batches", "4"},                    // threshold without -failover
		{"-addr", "http://x", "-failover", "http://y", "-stream"},                // stream conflict
		{"-addr", "http://x", "-failover", "http://y", "-frames", "2"},           // frames conflict
		{"-addr", "http://x", "-failover", "http://y", "-failover-pid", "12345"}, // pid without threshold
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
