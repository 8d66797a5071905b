package replica

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

func testParams() core.Params { return core.DefaultParams().Scaled(200) }

// synthEvents mirrors the server package's deterministic event generator so
// cross-package equivalence tests drive identical streams.
func synthEvents(n int, seed uint64) []trace.Event {
	evs := make([]trace.Event, 0, n)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < n; i++ {
		r := next()
		id := trace.BranchID(r % 24)
		var taken bool
		switch {
		case id < 8:
			taken = next()%500 != 0
		case id < 16:
			taken = (i/700)%2 == 0
		default:
			taken = next()%2 == 0
		}
		evs = append(evs, trace.Event{Branch: id, Taken: taken, Gap: uint32(1 + r%9)})
	}
	return evs
}

// primaryEnv is a full primary: WAL-backed server, HTTP client, and a
// shipper on its own listener.
type primaryEnv struct {
	srv     *server.Server
	client  *server.Client
	log     *wal.Log
	shipper *Shipper
	ln      net.Listener
	ts      *httptest.Server
}

func startPrimary(t *testing.T) *primaryEnv {
	return startPrimarySeg(t, 0)
}

// startPrimarySeg is startPrimary with a segment-size override (small
// segments force rotations, which compaction needs).
func startPrimarySeg(t *testing.T, segBytes int64) *primaryEnv {
	t.Helper()
	params := testParams()
	l, err := wal.Open(wal.Options{
		Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways,
		SegmentBytes: segBytes,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s := server.New(server.Config{Params: params, SnapshotDir: t.TempDir(), WAL: l, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sh := NewShipper(ShipperConfig{Log: l, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)
	t.Cleanup(func() { sh.Close(); l.Close() })
	return &primaryEnv{srv: s, client: server.NewClient(ts.URL, ts.Client()), log: l, shipper: sh, ln: ln, ts: ts}
}

// kill simulates a primary crash: the shipper, its listener, and the HTTP
// front end all go away at once.
func (p *primaryEnv) kill() {
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.shipper.Close()
	p.ln.Close()
}

// replicaEnv is a read-only replica daemon: its own WAL-backed server, an
// HTTP client, and a follower attached to a primary.
type replicaEnv struct {
	srv      *server.Server
	client   *server.Client
	log      *wal.Log
	follower *Follower
}

func startReplica(t *testing.T, addr string, window uint32) *replicaEnv {
	t.Helper()
	params := testParams()
	l, err := wal.Open(wal.Options{
		Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s := server.New(server.Config{Params: params, SnapshotDir: t.TempDir(), WAL: l, Replica: true, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	f := StartFollower(FollowerConfig{
		Addr:       addr,
		ParamsHash: server.ParamsHash(params),
		NextSeq:    l.NextSeq,
		Apply:      s.ApplyReplicated,
		Window:     window,
		Logf:       t.Logf,
	})
	s.SetSealFunc(f.Seal)
	t.Cleanup(func() { f.Seal(); l.Close() })
	return &replicaEnv{srv: s, client: server.NewClient(ts.URL, ts.Client()), log: l, follower: f}
}

// waitApplied blocks until the follower has applied through seq (the
// primary's NextSeq), or the deadline trips.
func waitApplied(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.LastApplied() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled at seq %d, want %d (state %s, err %v)",
				f.LastApplied(), seq, f.State(), f.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationCatchupAndLiveTail attaches a follower to a primary that
// already holds records (catch-up), keeps ingesting (live tail), and pins
// the replica's table state and decisions to the primary's.
func TestReplicationCatchupAndLiveTail(t *testing.T) {
	p := startPrimary(t)
	ctx := context.Background()

	// Records that exist before the follower attaches: the catch-up phase.
	for i := 0; i < 5; i++ {
		if _, err := p.client.Ingest(ctx, "gzip", synthEvents(300, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	r := startReplica(t, p.ln.Addr().String(), 8)

	// Records appended while attached: the live tail, two programs.
	for i := 5; i < 10; i++ {
		if _, err := p.client.Ingest(ctx, "gzip", synthEvents(300, uint64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.client.Ingest(ctx, "vpr", synthEvents(200, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, r.follower, p.log.NextSeq())

	if got, want := r.srv.Table().SnapshotEntries(), p.srv.Table().SnapshotEntries(); len(got) != len(want) {
		t.Fatalf("replica has %d entries, primary %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("entry %d diverges: replica %+v primary %+v", i, got[i], want[i])
			}
		}
	}
	// The replica logged the exact record bytes the primary did, under the
	// same sequence numbers: recovery or a further follower of the replica
	// replays what the primary would.
	pr, rr := logRecords(t, p.log), logRecords(t, r.log)
	if len(pr) != 15 || len(rr) != len(pr) {
		t.Fatalf("primary logged %d records, replica %d; want 15 each", len(pr), len(rr))
	}
	for i := range pr {
		if pr[i].Seq != rr[i].Seq || pr[i].Program != rr[i].Program || !bytes.Equal(pr[i].Frame, rr[i].Frame) {
			t.Fatalf("log record %d diverges: primary seq %d %q (%d frame bytes), replica seq %d %q (%d frame bytes)",
				i, pr[i].Seq, pr[i].Program, len(pr[i].Frame), rr[i].Seq, rr[i].Program, len(rr[i].Frame))
		}
	}
	// Cursor accounting matches: the failover resume point is exact.
	pc, err := p.client.Cursor(ctx, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := r.client.Cursor(ctx, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if pc.Events != rc.Events || pc.Instr != rc.Instr || pc.Events != 3000 {
		t.Fatalf("cursors diverge: primary %+v replica %+v", pc, rc)
	}
	// The replica serves decisions.
	pd, err := p.client.DecideKind(ctx, "gzip", trace.KindBranch, 3)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.client.DecideKind(ctx, "gzip", trace.KindBranch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pd != rd {
		t.Fatalf("decide diverges: primary %+v replica %+v", pd, rd)
	}
	if st := r.follower.State(); st != StateStreaming {
		t.Fatalf("follower state %q after catch-up, want %q", st, StateStreaming)
	}

	// Replication metrics are live on both sides.
	reg := obs.NewRegistry()
	p.shipper.RegisterMetrics(reg)
	r.follower.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	m := sb.String()
	for _, want := range []string{
		"reactived_replication_sessions 1",
		"reactived_replication_shipped_records_total 15",
		"reactived_replication_received_records_total 15",
		"reactived_replication_lag_records 0",
		`reactived_replication_state{state="streaming"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// logRecords reads every record of l's directory without decoding events,
// copying each frame out of the reader's reused buffer.
func logRecords(t *testing.T, l *wal.Log) []wal.Record {
	t.Helper()
	rd, err := wal.NewReader(wal.ReaderOptions{Dir: l.Dir(), ParamsHash: l.ParamsHash(), FrameOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var out []wal.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wal.Record{Seq: rec.Seq, Program: rec.Program, Frame: bytes.Clone(rec.Frame)})
	}
}

// TestFollowerParamsMismatch pins the handshake guard: a follower whose
// controller parameters differ is rejected permanently — no retry loop, a
// typed state, a diagnostic naming both hashes.
func TestFollowerParamsMismatch(t *testing.T) {
	p := startPrimary(t)
	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()) + 1,
		NextSeq:    func() uint64 { return 0 },
		Apply:      func(string, []trace.Event, uint64) error { return nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("mismatched follower did not stop")
	}
	if f.State() != StateFailed {
		t.Fatalf("state %q, want failed", f.State())
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "params hash") {
		t.Fatalf("error %v does not name the params hash", err)
	}
}

// TestFollowerBehindCompaction pins the mid-compaction connect: a follower
// resuming below the primary's retained range is told, permanently and in
// plain words, that it needs a full resync.
func TestFollowerBehindCompaction(t *testing.T) {
	p := startPrimarySeg(t, 1<<12)
	ctx := context.Background()
	// Rotate segments, then snapshot: the snapshot compacts the log so
	// sequence 0 is gone.
	for i := 0; i < 20; i++ {
		if _, err := p.client.Ingest(ctx, "gzip", synthEvents(2000, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.client.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if p.log.OldestSeq() == 0 {
		t.Fatal("compaction retained sequence 0; segment rotation did not trigger")
	}

	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()),
		NextSeq:    func() uint64 { return 0 },
		Apply:      func(string, []trace.Event, uint64) error { return nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("compacted-behind follower did not stop")
	}
	if f.State() != StateFailed {
		t.Fatalf("state %q, want failed", f.State())
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "full resync") {
		t.Fatalf("error %v does not name the full-resync remedy", err)
	}
}

// TestFollowerResumesAcrossPrimaryRestart kills the primary's shipper
// mid-session, brings a new one up on the same log, and checks the follower
// reconnects and resumes exactly where it left off.
func TestFollowerResumesAcrossPrimaryRestart(t *testing.T) {
	p := startPrimary(t)
	ctx := context.Background()
	if _, err := p.client.Ingest(ctx, "gzip", synthEvents(500, 1)); err != nil {
		t.Fatal(err)
	}

	// The follower dials through an indirection so the restarted shipper can
	// land on a fresh port.
	var addr atomic.Value
	addr.Store(p.ln.Addr().String())
	params := testParams()
	rl, err := wal.Open(wal.Options{
		Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	rs := server.New(server.Config{Params: params, WAL: rl, Replica: true, Logf: t.Logf})
	f := StartFollower(FollowerConfig{
		ParamsHash: server.ParamsHash(params),
		NextSeq:    rl.NextSeq,
		Apply:      rs.ApplyReplicated,
		Logf:       t.Logf,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.Load().(string))
		},
	})
	defer f.Seal()
	waitApplied(t, f, p.log.NextSeq())

	// Crash the shipper (listener and sessions die; the WAL lives on, as it
	// would across a daemon restart) and keep ingesting into the primary.
	p.shipper.Close()
	p.ln.Close()
	if _, err := p.client.Ingest(ctx, "gzip", synthEvents(400, 2)); err != nil {
		t.Fatal(err)
	}

	sh2 := NewShipper(ShipperConfig{Log: p.log, Logf: t.Logf})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh2.Serve(ln2)
	defer func() { sh2.Close(); ln2.Close() }()
	addr.Store(ln2.Addr().String())

	waitApplied(t, f, p.log.NextSeq())
	if got, want := rs.Table().SnapshotEntries(), p.srv.Table().SnapshotEntries(); len(got) != len(want) {
		t.Fatalf("replica has %d entries, primary %d", len(got), len(want))
	}
	if f.Err() != nil {
		t.Fatalf("follower reported a permanent error across a transient restart: %v", f.Err())
	}
}

// TestShipperRejectsProto1Hello pins the one-version wire on the primary
// side: a hello below ReplicationProtoVersion is answered with a typed
// proto_mismatch rejection, and no session starts.
func TestShipperRejectsProto1Hello(t *testing.T) {
	p := startPrimary(t)
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(trace.AppendReplHello(nil, trace.ReplHello{
		Proto: 1, ParamsHash: server.ParamsHash(testParams()),
	})); err != nil {
		t.Fatal(err)
	}
	ack, err := trace.ReadReplAck(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("ReadReplAck: %v", err)
	}
	if ack.Err == nil || ack.Err.Code != trace.StreamCodeProtoMismatch || !strings.Contains(ack.Err.Msg, "protocol 1") {
		t.Fatalf("proto-1 hello answered %+v (err %v), want a proto_mismatch rejection", ack, ack.Err)
	}
	if n := p.shipper.Sessions(); n != 0 {
		t.Fatalf("%d sessions after a rejected hello", n)
	}
	reg := obs.NewRegistry()
	p.shipper.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "reactived_replication_rejected_hellos_total 1") {
		t.Fatalf("rejected hello not counted:\n%s", sb.String())
	}
}

// TestFollowerRejectsOtherAckProto pins the one-version wire on the follower
// side: a primary that acks any revision other than ReplicationProtoVersion
// stops the follower permanently, before any record is applied.
func TestFollowerRejectsOtherAckProto(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := trace.ReadReplHello(bufio.NewReader(conn)); err != nil {
			return
		}
		conn.Write(trace.AppendReplAck(nil, trace.ReplAck{Proto: 1, Window: 8}))
		// Hold the connection until the follower hangs up.
		io.Copy(io.Discard, conn)
	}()
	f := StartFollower(FollowerConfig{
		Addr:       ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()),
		NextSeq:    func() uint64 { return 0 },
		Apply: func(string, []trace.Event, uint64) error {
			t.Error("follower applied a record from a proto-1 primary")
			return nil
		},
		Logf: t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower kept going after a proto-1 ack")
	}
	if f.State() != StateFailed {
		t.Fatalf("state %q, want failed", f.State())
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "acked protocol 1") {
		t.Fatalf("error %v does not name the acked protocol", err)
	}
}

// TestShipperRejectsFutureFrom pins the divergence guard: a follower ahead
// of the primary's log end is rejected permanently (its records came from a
// history this primary never wrote).
func TestShipperRejectsFutureFrom(t *testing.T) {
	p := startPrimary(t)
	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()),
		NextSeq:    func() uint64 { return 999 },
		Apply:      func(string, []trace.Event, uint64) error { return nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("future-from follower did not stop")
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "beyond the log end") {
		t.Fatalf("error %v does not name the divergence", err)
	}
}
