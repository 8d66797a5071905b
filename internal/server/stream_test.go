package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

// streamBatches splits evs into batches of size batch.
func streamBatches(evs []trace.Event, batch int) [][]trace.Event {
	var out [][]trace.Event
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		out = append(out, evs[off:end])
	}
	return out
}

// runSession pushes every batch through st pipelined (sender goroutine,
// receiver in the caller) and returns the concatenated decisions.
func runSession(t *testing.T, st *Stream, batches [][]trace.Event) []Decision {
	t.Helper()
	ctx := context.Background()
	sendErr := make(chan error, 1)
	go func() {
		for _, b := range batches {
			if err := st.Send(ctx, b); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var got []Decision
	for range batches {
		ds, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		got = append(got, ds...)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("Send: %v", err)
	}
	return got
}

// TestStreamMatchesIngest pins the tentpole equivalence: streaming sessions
// produce byte-identical decisions to POST /v2/ingest for the same event
// sequence, across pipeline window sizes and the number of partitions the
// trace is dealt over (shards=N: N programs, one session each, all open at
// once).
func TestStreamMatchesIngest(t *testing.T) {
	evs := synthEvents(20_000, 11)
	const batch = 1000
	for _, parts := range []int{1, 4, 16} {
		names, streams := dealPrograms("gzip", evs, parts)
		// The POST reference for this layout.
		_, postC := newTestServer(t, Config{})
		want := make([][]Decision, parts)
		for k, name := range names {
			for _, b := range streamBatches(streams[k], batch) {
				ds, err := postC.Ingest(context.Background(), name, b)
				if err != nil {
					t.Fatal(err)
				}
				want[k] = append(want[k], ds...)
			}
		}
		for _, window := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("shards=%d/window=%d", parts, window), func(t *testing.T) {
				_, c := newTestServer(t, Config{})
				sessions := make([]*Stream, parts)
				for k, name := range names {
					st, err := c.OpenStream(context.Background(), name, WithStreamWindow(window))
					if err != nil {
						t.Fatalf("OpenStream: %v", err)
					}
					if st.Window() != window {
						t.Fatalf("granted window %d, requested %d", st.Window(), window)
					}
					sessions[k] = st
				}
				got := make([][]Decision, parts)
				for k := range names {
					got[k] = runSession(t, sessions[k], streamBatches(streams[k], batch))
				}
				for k, name := range names {
					if err := sessions[k].Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					if len(got[k]) != len(want[k]) {
						t.Fatalf("%s: %d decisions, want %d", name, len(got[k]), len(want[k]))
					}
					for i := range got[k] {
						if got[k][i] != want[k][i] {
							t.Fatalf("%s decision %d = %v, want %v", name, i, got[k][i], want[k][i])
						}
					}
				}
			})
		}
	}
}

// TestStreamRawTCPListener drives a session over ServeStream's raw listener
// (no HTTP upgrade) and pins it to the same decisions as the table.
func TestStreamRawTCPListener(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hash, err := ParseInfoParamsHash(info)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DialStream(context.Background(), ln.Addr().String(), "raw", hash, WithStreamWindow(8))
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	evs := synthEvents(5000, 7)
	got := runSession(t, st, streamBatches(evs, 500))
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	tab := NewTable(s.cfg.Params)
	var instr uint64
	want := applyAll(tab, "raw", evs, &instr)
	if len(got) != len(want) {
		t.Fatalf("%d decisions, want %d", len(got), len(want))
	}
	for i, d := range got {
		if d.Encode() != want[i] {
			t.Fatalf("decision %d = %v, want encoded %#x", i, d, want[i])
		}
	}
}

// TestStreamSnapshotWhileStreaming interleaves snapshots with an active
// session: both must succeed, and the snapshot must land on disk.
func TestStreamSnapshotWhileStreaming(t *testing.T) {
	s, c := newTestServer(t, Config{SnapshotDir: t.TempDir()})
	st, err := c.OpenStream(context.Background(), "snap", WithStreamWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	evs := synthEvents(30_000, 3)
	batches := streamBatches(evs, 500)

	var wg sync.WaitGroup
	wg.Add(1)
	snapErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.SnapshotNow(); err != nil {
				snapErr <- err
				return
			}
		}
		snapErr <- nil
	}()
	got := runSession(t, st, batches)
	wg.Wait()
	if err := <-snapErr; err != nil {
		t.Fatalf("SnapshotNow during streaming: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != len(evs) {
		t.Fatalf("%d decisions for %d events", len(got), len(evs))
	}
	snap, err := LoadSnapshot(s.cfg.SnapshotDir)
	if err != nil || snap == nil {
		t.Fatalf("LoadSnapshot = %v, %v; want a snapshot", snap, err)
	}
}

// TestStreamDrainSendsTerminal pins the lifecycle contract: BeginDrain ends
// an idle session with a terminal "draining" frame, so the client observes
// ErrDraining — a typed error, not a connection reset.
func TestStreamDrainSendsTerminal(t *testing.T) {
	s, c := newTestServer(t, Config{})
	st, err := c.OpenStream(context.Background(), "drain")
	if err != nil {
		t.Fatal(err)
	}
	// One working round trip before the drain.
	if err := st.Send(context.Background(), synthEvents(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := st.Recv(ctx); !errors.Is(err, ErrDraining) {
		t.Fatalf("Recv after drain = %v, want ErrDraining", err)
	}
	if err := st.Send(ctx, synthEvents(10, 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Send after drain = %v, want ErrDraining", err)
	}
	if err := st.Close(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Close after drain = %v, want ErrDraining", err)
	}
	// The server side must also settle: the session left the registry.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := s.WaitStreams(waitCtx); err != nil {
		t.Fatalf("WaitStreams: %v", err)
	}

	// New sessions are refused while draining, with the typed error on both
	// transports.
	if _, err := c.OpenStream(context.Background(), "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("OpenStream while draining = %v, want ErrDraining", err)
	}
}

// TestStreamHandshakeParamMismatch pins the typed rejection of a handshake
// whose controller-parameter hash differs from the server's.
func TestStreamHandshakeParamMismatch(t *testing.T) {
	_, c := newTestServer(t, Config{})
	_, err := c.OpenStream(context.Background(), "p", WithStreamParams(0xdeadbeef))
	if !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("OpenStream with wrong hash = %v, want ErrParamsMismatch", err)
	}
}

// TestStreamHandshakeProtoMismatch drives the raw wire format directly:
// every hello older than proto 4 — including a proto-3 hello carrying the
// old change-only flag bit — gets a typed proto_mismatch reject that names
// the client's version.
func TestStreamHandshakeProtoMismatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	for _, tc := range []struct {
		proto   uint32 // the raw proto uvarint the hello carries
		version uint32 // the version the reject must name
	}{
		{1, 1},
		{2, 2},
		{3, 3},
		{3 | 1<<16, 3},
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		hs := trace.Handshake{Proto: tc.proto, ParamsHash: s.paramsHash, Program: "p"}
		if _, err := conn.Write(trace.AppendHandshake(nil, hs)); err != nil {
			t.Fatal(err)
		}
		ack, err := trace.ReadAck(bufio.NewReader(conn))
		conn.Close()
		if err != nil {
			t.Fatalf("proto %#x: ReadAck: %v", tc.proto, err)
		}
		if ack.Err == nil || ack.Err.Code != trace.StreamCodeProtoMismatch {
			t.Fatalf("proto %#x: ack = %+v, want proto_mismatch reject", tc.proto, ack)
		}
		if want := fmt.Sprintf("stream protocol %d,", tc.version); !strings.Contains(ack.Err.Msg, want) {
			t.Fatalf("proto %#x: reject %q does not name %q", tc.proto, ack.Err.Msg, want)
		}
	}
}

// TestDialStreamRejectsOversizedWindow pins the client's check on the
// granted window: a broken server acking more than MaxStreamWindow, or more
// than the client asked for, fails the dial before the window sizes
// anything.
func TestDialStreamRejectsOversizedWindow(t *testing.T) {
	for _, tc := range []struct {
		requested int
		granted   uint32
	}{
		{0, 1 << 31},
		{0, MaxStreamWindow + 1},
		{8, 16},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			hs, err := trace.ReadHandshake(bufio.NewReader(conn))
			if err != nil {
				return
			}
			conn.Write(trace.AppendAck(nil, trace.Ack{
				Proto: trace.StreamProtoVersion, Window: tc.granted, ParamsHash: hs.ParamsHash,
			}))
			io.Copy(io.Discard, conn)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := DialStream(ctx, ln.Addr().String(), "p", 1, WithStreamWindow(tc.requested))
		cancel()
		ln.Close()
		if err == nil {
			st.Close()
			t.Fatalf("requested %d, granted %d: DialStream succeeded", tc.requested, tc.granted)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("granted window %d", tc.granted)) {
			t.Fatalf("requested %d, granted %d: err = %v", tc.requested, tc.granted, err)
		}
	}
}

// TestStreamRejectFrameKeepsSession sends a corrupt event payload inside an
// intact session frame: the server answers a reject for that frame and the
// session keeps working.
func TestStreamRejectFrameKeepsSession(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	st, err := DialStream(context.Background(), ln.Addr().String(), "p", s.paramsHash)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Reach under the client: write a session frame whose event payload is
	// garbage (valid session framing, corrupt trace frame inside).
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	if _, err := raw.Write(trace.AppendHandshake(nil,
		trace.Handshake{Proto: trace.StreamProtoVersion, ParamsHash: s.paramsHash, Program: "q"})); err != nil {
		t.Fatal(err)
	}
	if ack, err := trace.ReadAck(br); err != nil || ack.Err != nil {
		t.Fatalf("handshake: %v, %+v", err, ack)
	}
	if _, err := raw.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents,
		[]byte("not a trace frame"))); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := trace.ReadSessionFrame(br, nil)
	if err != nil {
		t.Fatalf("reading reject: %v", err)
	}
	if typ != trace.StreamFrameReject {
		t.Fatalf("frame type %q, want reject", typ)
	}
	// The session survived the rejection: a valid frame still applies. The
	// payload leads with a trace context (zero = untraced) and a kind tag.
	good := trace.EncodeFrameAppend(
		trace.AppendKind(trace.AppendTraceContext(nil, 0), trace.KindBranch),
		synthEvents(10, 4))
	if _, err := raw.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents, good)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := trace.ReadSessionFrame(br, nil)
	if err != nil {
		t.Fatalf("after reject: %v", err)
	}
	// The server may coalesce ('d'); both forms decode to the same
	// decisions.
	var ds []Decision
	switch typ {
	case trace.StreamFrameDecisions:
		ds, err = decodeDecisionsPayload(payload)
	case trace.StreamFrameDecisionsRLE:
		var raw []byte
		if raw, err = trace.DecodeDecisionsRLE(payload, nil); err == nil {
			ds, err = decisionsFromBytes(raw)
		}
	default:
		t.Fatalf("after reject: type %q; want a decisions frame", typ)
	}
	if err != nil || len(ds) != 10 {
		t.Fatalf("decisions after reject = %d, %v; want 10", len(ds), err)
	}
}

// TestStreamCloseRemovesSession checks the registry bookkeeping around a
// clean close.
func TestStreamCloseRemovesSession(t *testing.T) {
	s, c := newTestServer(t, Config{})
	st, err := c.OpenStream(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(context.Background(), synthEvents(50, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveStreams(); n != 1 {
		t.Fatalf("ActiveStreams = %d, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitStreams(ctx); err != nil {
		t.Fatalf("WaitStreams after close: %v", err)
	}
	// Recv after a clean close reports end-of-session, not an error.
	if _, err := st.Recv(context.Background()); err != io.EOF {
		t.Fatalf("Recv after close = %v, want io.EOF", err)
	}
}

// TestStreamCloseUnblocksAbandonedSession pins the abort path: a receiver
// that stops Recv'ing mid-session wedges the stream reader (its results
// buffer fills, so no more window credits come back) and thereby any Send
// waiting on credit. Close must discard the undelivered results, fail the
// blocked Send, and still complete the bye handshake — not deadlock.
func TestStreamCloseUnblocksAbandonedSession(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.OpenStream(ctx, "p", WithStreamWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	evs := synthEvents(64, 3)
	// Far more frames than two windows' worth: with no Recv ever issued,
	// the sender is guaranteed to end up blocked on window credit.
	sendDone := make(chan error, 1)
	go func() {
		for i := 0; i < 16; i++ {
			if err := st.Send(ctx, evs); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()

	closeDone := make(chan error, 1)
	go func() { closeDone <- st.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an abandoned session")
	}
	select {
	case err := <-sendDone:
		if err == nil {
			t.Fatal("all sends succeeded without a receiver; sender never blocked")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender still blocked after Close")
	}
}

// TestStreamUpgradeOnRealServer sanity-checks the HTTP hijack path against a
// stock httptest server end to end (newTestServer uses one already; this
// pins the 101 upgrade specifically by driving a second session while the
// first is open).
func TestStreamUpgradeOnRealServer(t *testing.T) {
	s := New(Config{Params: testParams()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := Connect(ts.URL)
	st1, err := c.OpenStream(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.OpenStream(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveStreams(); n != 2 {
		t.Fatalf("ActiveStreams = %d, want 2", n)
	}
	for _, st := range []*Stream{st1, st2} {
		if err := st.Send(context.Background(), synthEvents(20, 5)); err != nil {
			t.Fatal(err)
		}
		if ds, err := st.Recv(context.Background()); err != nil || len(ds) != 20 {
			t.Fatalf("Recv = %d decisions, %v", len(ds), err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
