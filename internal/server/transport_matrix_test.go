package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"reactivespec/internal/trace"
)

// TestTransportDecisionModeMatrix is the cross-transport, cross-encoding
// equivalence pin: every transport (per-batch POST, HTTP-upgraded stream, raw
// TCP stream, unix-domain stream) crossed with every decision encoding
// (plain, RLE, change-only) must produce byte-identical decisions for the
// same event sequence, across seeds and windows. Run it with -race to cover
// the concurrency claim too.
func TestTransportDecisionModeMatrix(t *testing.T) {
	const batch = 900
	modes := map[string]StreamDecisions{
		"plain":  StreamDecisionsPlain,
		"rle":    StreamDecisionsRLE,
		"change": StreamDecisionsChangeOnly,
	}
	for _, seed := range []uint64{3, 21} {
		evs := synthEvents(12_000, seed)
		// The POST reference for this seed.
		_, postC := newTestServer(t, Config{})
		var want []Decision
		for _, b := range streamBatches(evs, batch) {
			ds, err := postC.Ingest(context.Background(), "gzip", b)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ds...)
		}

		check := func(t *testing.T, got []Decision) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%d decisions, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("decision %d = %v, want %v", i, got[i], want[i])
				}
			}
		}

		for modeName, mode := range modes {
			for _, window := range []int{1, 16} {
				opts := []StreamOption{WithStreamWindow(window), WithStreamDecisions(mode)}

				t.Run(fmt.Sprintf("seed=%d/http-stream/%s/w=%d", seed, modeName, window), func(t *testing.T) {
					_, c := newTestServer(t, Config{})
					st, err := c.OpenStream(context.Background(), "gzip", opts...)
					if err != nil {
						t.Fatal(err)
					}
					got := runSession(t, st, streamBatches(evs, batch))
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					check(t, got)
				})

				t.Run(fmt.Sprintf("seed=%d/tcp-stream/%s/w=%d", seed, modeName, window), func(t *testing.T) {
					s, _ := newTestServer(t, Config{})
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					defer ln.Close()
					go s.ServeStream(ln)
					st, err := DialStream(context.Background(), ln.Addr().String(), "gzip", s.paramsHash, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got := runSession(t, st, streamBatches(evs, batch))
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					check(t, got)
				})

				t.Run(fmt.Sprintf("seed=%d/unix-stream/%s/w=%d", seed, modeName, window), func(t *testing.T) {
					s, _ := newTestServer(t, Config{})
					sock := filepath.Join(t.TempDir(), "s.sock")
					ln, err := net.Listen("unix", sock)
					if err != nil {
						t.Fatal(err)
					}
					defer ln.Close()
					go s.ServeStream(ln)
					st, err := DialStream(context.Background(), "unix://"+sock, "gzip", s.paramsHash, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got := runSession(t, st, streamBatches(evs, batch))
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					check(t, got)
				})
			}
		}
	}
}

// TestStreamProto2InteropByteExact drives the raw wire as a proto-2 client
// against today's proto-3 server and pins the backward-compatibility claim
// byte for byte: the ack is exactly the pre-flag encoding, and every decision
// frame is a plain 'D' whose payload matches what the pre-coalescing server
// sent.
func TestStreamProto2InteropByteExact(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// The handshake a proto-2 build emits, assembled by hand.
	var wire []byte
	wire = append(wire, 'R', 'S', 'H', 'S')
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { wire = append(wire, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	put(2) // proto 2, no flag bits
	put(s.paramsHash)
	put(4) // window
	put(uint64(len("old")))
	wire = append(wire, "old"...)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}

	// The ack bytes a proto-2 server would have written for this handshake.
	wantAck := []byte{'R', 'S', 'H', 'A', 0}
	putAck := func(v uint64) { wantAck = append(wantAck, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	putAck(2)
	putAck(4)
	putAck(s.paramsHash)
	gotAck := make([]byte, len(wantAck))
	if _, err := readFull(br, gotAck); err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	if !bytes.Equal(gotAck, wantAck) {
		t.Fatalf("proto-2 ack bytes changed:\n got %x\nwant %x", gotAck, wantAck)
	}

	// Two event frames; every response must be a plain 'D' frame whose
	// payload is the exact pre-coalescing encoding.
	evs := synthEvents(2000, 5)
	tab := NewTable(s.cfg.Params)
	var instr uint64
	for i, b := range streamBatches(evs, 500) {
		payload := trace.EncodeFrameAppend(trace.AppendTraceContext(nil, 0), b)
		if _, err := conn.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents, payload)); err != nil {
			t.Fatal(err)
		}
		var wantDecisions []byte
		wantDecisions, instr = tab.ApplyBatch("old", b, instr, nil)
		wantFrame := trace.AppendSessionFrame(nil, trace.StreamFrameDecisions,
			trace.AppendDecisionsPlain(nil, wantDecisions))
		gotFrame := make([]byte, len(wantFrame))
		if _, err := readFull(br, gotFrame); err != nil {
			t.Fatalf("batch %d: reading decisions: %v", i, err)
		}
		if !bytes.Equal(gotFrame, wantFrame) {
			t.Fatalf("batch %d: proto-2 decision frame bytes changed:\n got %x\nwant %x",
				i, gotFrame, wantFrame)
		}
	}
}

// readFull is io.ReadFull over the session reader, kept local so byte-exact
// comparisons read raw wire without the frame parser's help.
func readFull(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
