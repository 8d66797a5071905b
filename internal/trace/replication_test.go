package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

func TestReplHelloRoundTrip(t *testing.T) {
	want := ReplHello{Proto: ReplicationProtoVersion, ParamsHash: 0xdeadbeefcafef00d, From: 123456, Window: 512}
	wire := AppendReplHello(nil, want)
	got, err := ReadReplHello(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatalf("ReadReplHello: %v", err)
	}
	if got != want {
		t.Fatalf("hello round trip: got %+v want %+v", got, want)
	}
	if _, err := ReadReplHello(bufio.NewReader(bytes.NewReader(wire[:len(wire)-1]))); err == nil {
		t.Fatal("truncated hello decoded cleanly")
	}
	if _, err := ReadReplHello(bufio.NewReader(bytes.NewReader(append([]byte("XXXX"), wire[4:]...)))); err == nil {
		t.Fatal("bad magic decoded cleanly")
	}
}

func TestReplAckRoundTrip(t *testing.T) {
	for _, want := range []ReplAck{
		{Proto: ReplicationProtoVersion, Window: 256, Oldest: 10, Next: 999},
		{Err: &StreamError{Code: ReplCodeCompacted, Msg: "records [0, 512) compacted away"}},
	} {
		wire := AppendReplAck(nil, want)
		got, err := ReadReplAck(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("ReadReplAck(%+v): %v", want, err)
		}
		if want.Err == nil {
			if got != want {
				t.Fatalf("ack round trip: got %+v want %+v", got, want)
			}
		} else if got.Err == nil || *got.Err != *want.Err {
			t.Fatalf("rejection round trip: got %+v want %+v", got.Err, want.Err)
		}
	}
}

func TestReplRecordRoundTrip(t *testing.T) {
	frame := EncodeFrameAppend(nil, []Event{{Branch: 7, Taken: true, Gap: 3}, {Branch: 9, Gap: 1}})
	want := ReplRecord{
		Seq:              1 << 40,
		Durable:          (1 << 40) + 17,
		ShippedUnixNanos: 1754550000123456789,
		Trace:            0xbeef0001,
		Program:          "gzip",
		Frame:            frame,
	}
	wire := AppendReplRecord(nil, want)

	br := bufio.NewReader(bytes.NewReader(wire))
	typ, payload, _, err := ReadReplFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadReplFrame: %v", err)
	}
	if typ != ReplFrameRecord {
		t.Fatalf("frame type %q, want %q", typ, ReplFrameRecord)
	}
	got, err := DecodeReplRecord(payload)
	if err != nil {
		t.Fatalf("DecodeReplRecord: %v", err)
	}
	if got.Seq != want.Seq || got.Durable != want.Durable || got.ShippedUnixNanos != want.ShippedUnixNanos ||
		got.Trace != want.Trace || got.Program != want.Program {
		t.Fatalf("record header round trip: got %+v", got)
	}
	if !reflect.DeepEqual(got.Frame, frame) {
		t.Fatal("frame payload diverges")
	}
	// Malformed payloads must be rejected, not misparsed.
	for cut := 0; cut < len(payload); cut++ {
		if rec, err := DecodeReplRecord(payload[:cut]); err == nil {
			// Shorter prefixes can still parse if the frame payload is
			// merely shortened — the trace decode happens later — but the
			// program field must never read out of bounds.
			if len(rec.Program) > len(payload) {
				t.Fatalf("cut %d produced an out-of-bounds program", cut)
			}
		}
	}
}

func TestNegotiateProtos(t *testing.T) {
	streamCases := []struct {
		peer uint32
		want uint32
		ok   bool
	}{
		{0, 0, false},
		{1, 0, false}, // the stream speaks one revision: protos 1-3 are refused
		{2, 0, false},
		{3, 0, false},
		{4, 4, true},
		{5, 4, true}, // a newer peer speaks down to us
	}
	for _, c := range streamCases {
		if got, ok := NegotiateStreamProto(c.peer); got != c.want || ok != c.ok {
			t.Fatalf("NegotiateStreamProto(%d) = %d,%v want %d,%v", c.peer, got, ok, c.want, c.ok)
		}
	}
	replCases := []struct {
		peer uint32
		want uint32
		ok   bool
	}{
		{0, 0, false},
		{1, 0, false}, // replication speaks one revision: proto 1 is refused
		{2, 2, true},
		{3, 2, true}, // a newer peer speaks down to us
	}
	for _, c := range replCases {
		if got, ok := NegotiateReplProto(c.peer); got != c.want || ok != c.ok {
			t.Fatalf("NegotiateReplProto(%d) = %d,%v want %d,%v", c.peer, got, ok, c.want, c.ok)
		}
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	blob := EncodeFrameAppend(nil, []Event{{Branch: 1, Taken: true, Gap: 2}})
	for _, id := range []uint64{0, 1, 0xdeadbeefcafe} {
		payload := AppendTraceContext(nil, id)
		payload = append(payload, blob...)
		got, rest, err := CutTraceContext(payload)
		if err != nil {
			t.Fatalf("CutTraceContext(id=%#x): %v", id, err)
		}
		if got != id {
			t.Fatalf("trace id round trip: got %#x want %#x", got, id)
		}
		if !bytes.Equal(rest, blob) {
			t.Fatal("trace blob diverges after trace context")
		}
	}
	if _, _, err := CutTraceContext(nil); err == nil {
		t.Fatal("empty payload accepted as trace context")
	}
}

func TestReplAckFrameRoundTrip(t *testing.T) {
	wire := AppendReplAckFrame(nil, 987654321)
	br := bufio.NewReader(bytes.NewReader(wire))
	typ, payload, _, err := ReadReplFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadReplFrame: %v", err)
	}
	if typ != ReplFrameAck {
		t.Fatalf("frame type %q, want %q", typ, ReplFrameAck)
	}
	acked, err := DecodeReplAckFrame(payload)
	if err != nil {
		t.Fatalf("DecodeReplAckFrame: %v", err)
	}
	if acked != 987654321 {
		t.Fatalf("acked = %d", acked)
	}
	if _, err := DecodeReplAckFrame(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeReplAckFrame(nil); err == nil {
		t.Fatal("empty ack accepted")
	}
}
