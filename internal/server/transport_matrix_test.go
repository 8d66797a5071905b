package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

// TestTransportDecisionModeMatrix is the cross-transport equivalence pin:
// every stream transport (HTTP-upgraded, raw TCP, unix-domain) must produce
// byte-identical decisions to per-batch POST for the same event sequence,
// across seeds, windows and decision modes. Run it with -race to cover the
// concurrency claim too.
//
// A session answers each event frame with the run-length 'd' frame, or with
// the plain 'D' frame when RLE would not strictly shrink the payload, so the
// decision mode is set by the traffic's shape. Each mode cuts the same
// events into batches that force a known answer, and a reference table
// proves the shape before any transport runs:
//   - plain: batches of two events, where RLE never shrinks: every answer
//     is a 'D' frame;
//   - rle: batches of 900, where runs dominate: most answers are 'd' frames;
//   - change: batch sizes cycle 1, 900, 2, 450, so the frame type changes
//     between most consecutive answers within one session.
func TestTransportDecisionModeMatrix(t *testing.T) {
	modes := []struct {
		name  string
		sizes []int
	}{
		{"plain", []int{2}},
		{"rle", []int{900}},
		{"change", []int{1, 900, 2, 450}},
	}
	for _, seed := range []uint64{3, 21} {
		evs := synthEvents(12_000, seed)
		// The POST reference for this seed.
		s0, postC := newTestServer(t, Config{})
		var want []Decision
		for _, b := range streamBatches(evs, 900) {
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

		for _, mode := range modes {
			batches := cycleBatches(evs, mode.sizes)
			plain, rle, switches := answerFrameTypes(NewTable(s0.cfg.Params), batches)
			switch {
			case mode.name == "plain" && rle != 0,
				mode.name == "rle" && rle <= plain,
				mode.name == "change" && 2*switches <= len(batches):
				t.Fatalf("seed=%d/%s: fixture answers %d plain and %d RLE frames, switching type %d times",
					seed, mode.name, plain, rle, switches)
			}

			for _, window := range []int{1, 16} {
				opts := []StreamOption{WithStreamWindow(window)}

				t.Run(fmt.Sprintf("seed=%d/http-stream/%s/w=%d", seed, mode.name, window), func(t *testing.T) {
					_, c := newTestServer(t, Config{})
					st, err := c.OpenStream(context.Background(), "gzip", opts...)
					if err != nil {
						t.Fatal(err)
					}
					got := runSession(t, st, batches)
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					check(t, got)
				})

				t.Run(fmt.Sprintf("seed=%d/tcp-stream/%s/w=%d", seed, mode.name, window), func(t *testing.T) {
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
					got := runSession(t, st, batches)
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					check(t, got)
				})

				t.Run(fmt.Sprintf("seed=%d/unix-stream/%s/w=%d", seed, mode.name, window), func(t *testing.T) {
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
					got := runSession(t, st, batches)
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					check(t, got)
				})
			}
		}
	}
}

// cycleBatches cuts evs into consecutive batches whose sizes cycle through
// sizes.
func cycleBatches(evs []trace.Event, sizes []int) [][]trace.Event {
	var out [][]trace.Event
	for i, off := 0, 0; off < len(evs); i++ {
		end := min(off+sizes[i%len(sizes)], len(evs))
		out = append(out, evs[off:end])
		off = end
	}
	return out
}

// answerFrameTypes replays batches through the reference table ref and
// counts how many answers the session must send as plain 'D' frames and how
// many as run-length 'd' frames (RLE wins only when its payload is strictly
// shorter), and how often consecutive answers switch frame type.
func answerFrameTypes(ref *Table, batches [][]trace.Event) (plain, rle, switches int) {
	var instr uint64
	var ds []byte
	prevRLE := false
	for i, b := range batches {
		ds, instr = ref.ApplyBatch("gzip", b, instr, ds[:0])
		isRLE := len(trace.AppendDecisionsRLE(nil, ds)) < len(trace.AppendDecisionsPlain(nil, ds))
		if isRLE {
			rle++
		} else {
			plain++
		}
		if i > 0 && isRLE != prevRLE {
			switches++
		}
		prevRLE = isRLE
	}
	return plain, rle, switches
}

// rawHello is the hello a client speaking rawProto (the whole proto uvarint,
// flag bits included) emits, assembled by hand.
func rawHello(rawProto, paramsHash uint64, window uint64, program string) []byte {
	wire := []byte{'R', 'S', 'H', 'S'}
	wire = binary.AppendUvarint(wire, rawProto)
	wire = binary.AppendUvarint(wire, paramsHash)
	wire = binary.AppendUvarint(wire, window)
	wire = binary.AppendUvarint(wire, uint64(len(program)))
	return append(wire, program...)
}

// proto4Ack is the exact ack a proto-4 session is granted, assembled by hand.
func proto4Ack(window, paramsHash uint64) []byte {
	ack := []byte{'R', 'S', 'H', 'A', 0}
	ack = binary.AppendUvarint(ack, 4)
	ack = binary.AppendUvarint(ack, window)
	return binary.AppendUvarint(ack, paramsHash)
}

// dialRawHello dials addr, sends hello, and checks that the answer starts
// with exactly wantAck.
func dialRawHello(t *testing.T, addr string, hello, wantAck []byte) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	gotAck := make([]byte, len(wantAck))
	if _, err := readFull(br, gotAck); err != nil {
		t.Fatalf("hello %x: reading ack: %v", hello, err)
	}
	if !bytes.Equal(gotAck, wantAck) {
		t.Fatalf("hello %x: ack bytes changed:\n got %x\nwant %x", hello, gotAck, wantAck)
	}
	return conn, br
}

// protoRejectAck is the exact ack rejecting a hello of an older stream
// version, assembled by hand.
func protoRejectAck(version uint64) []byte {
	const code = "proto_mismatch"
	msg := fmt.Sprintf("client speaks stream protocol %d, server speaks 4", version)
	ack := []byte{'R', 'S', 'H', 'A', 1}
	ack = binary.AppendUvarint(ack, uint64(len(code)))
	ack = append(ack, code...)
	ack = binary.AppendUvarint(ack, uint64(len(msg)))
	return append(ack, msg...)
}

// expectHangUp checks that the server sends nothing after what was already
// read and closes the connection.
func expectHangUp(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the reject: read %#x, %v; want the server to hang up", b, err)
	}
}

// TestStreamProto2InteropByteExact drives the raw wire as a proto-2 client
// against today's proto-4 server and pins what that client reads byte for
// byte: exactly the reject ack — status 1, code proto_mismatch and a message
// naming both versions, in the ack layout every stream version parses — and
// then the server hanging up without acting on the events frame the client
// pipelined behind its hello.
func TestStreamProto2InteropByteExact(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	// The hello a proto-2 build emits, followed by its first events frame.
	hello := rawHello(2, s.paramsHash, 4, "old")
	payload := trace.EncodeFrameAppend(trace.AppendTraceContext(nil, 0), synthEvents(500, 5))
	hello = trace.AppendSessionFrame(hello, trace.StreamFrameEvents, payload)
	conn, br := dialRawHello(t, ln.Addr().String(), hello, protoRejectAck(2))
	expectHangUp(t, conn, br)
	if n := s.table.Metrics().Events; n != 0 {
		t.Fatalf("a rejected proto-2 session applied %d events", n)
	}
}

// TestStreamHandshakeNegotiatesDown pins the hellos that negotiate down to
// proto 4: a newer client, and a proto-4 client that sets the old
// change-only flag bit, get exactly the ack a plain proto-4 hello gets.
func TestStreamHandshakeNegotiatesDown(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)
	for _, raw := range []uint64{5, 4 | 1<<16} {
		dialRawHello(t, ln.Addr().String(), rawHello(raw, s.paramsHash, 4, "p"), proto4Ack(4, s.paramsHash))
	}
}

// TestStreamProto4WireByteExact drives the raw wire as a proto-4 client and
// pins the session's one wire byte for byte: the ack, an 'E' frame whose
// decisions are one constant run answered by the exact RLE 'd' frame, and a
// frame of alternating decisions — where RLE would not shrink the payload —
// answered by the exact plain 'D' frame.
func TestStreamProto4WireByteExact(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)
	conn, br := dialRawHello(t, ln.Addr().String(), rawHello(4, s.paramsHash, 4, "wire"), proto4Ack(4, s.paramsHash))

	// send ships one kind=branch frame, untraced, and returns the exact
	// response bytes plus the reference decisions for it.
	ref := NewTable(s.cfg.Params)
	var instr uint64
	send := func(evs []trace.Event, respLen int) (got, decisions []byte) {
		t.Helper()
		payload := []byte{0, 0} // trace ID 0 (untraced), kind tag 0 (branch)
		payload = trace.EncodeFrameAppend(payload, evs)
		if _, err := conn.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents, payload)); err != nil {
			t.Fatal(err)
		}
		decisions, instr = ref.ApplyBatch("wire", evs, instr, nil)
		if respLen < 0 {
			typ, _, _, err := trace.ReadSessionFrame(br, nil)
			if err != nil || (typ != trace.StreamFrameDecisions && typ != trace.StreamFrameDecisionsRLE) {
				t.Fatalf("warm-up answer: type %q, %v", typ, err)
			}
			return nil, decisions
		}
		got = make([]byte, respLen)
		if _, err := readFull(br, got); err != nil {
			t.Fatal(err)
		}
		return got, decisions
	}
	repeat := func(id trace.BranchID, n int, gap uint32) []trace.Event {
		evs := make([]trace.Event, n)
		for i := range evs {
			evs[i] = trace.Event{Branch: id, Taken: true, Gap: gap}
		}
		return evs
	}

	// 40 events of a fresh unit: all inside its monitor period, so the
	// decisions are one constant run, answered 'd' count, runLen, value.
	got, ds := send(repeat(3, 40, 1), 5)
	if !bytes.Equal(ds, bytes.Repeat(ds[:1], len(ds))) {
		t.Fatalf("fixture: decisions %x are not one run", ds)
	}
	if want := []byte{'d', 3, 40, 40, ds[0]}; !bytes.Equal(got, want) {
		t.Fatalf("constant-run frame bytes changed:\n got %x\nwant %x", got, want)
	}

	// Unit 0 runs long enough to be selected and go live; then it alternates
	// with a fresh unit, so every decision differs from its neighbour and
	// RLE (two bytes a decision) loses to the plain 'D' frame.
	send(repeat(0, 200, 100), -1)
	alt := make([]trace.Event, 64)
	for i := range alt {
		alt[i] = trace.Event{Branch: trace.BranchID(5 * (i % 2)), Taken: true, Gap: 1}
	}
	got, ds = send(alt, 2+1+len(alt))
	for i := 1; i < len(ds); i++ {
		if ds[i] == ds[i-1] {
			t.Fatalf("fixture: decisions %x do not alternate at %d", ds, i)
		}
	}
	want := append([]byte{'D', byte(1 + len(ds)), byte(len(ds))}, ds...)
	if !bytes.Equal(got, want) {
		t.Fatalf("alternating frame bytes changed:\n got %x\nwant %x", got, want)
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
