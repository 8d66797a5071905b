package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// TestMixedKindIsolationSameProgram pins the core serving-table claim of the
// kind-generic API: four kinds under the same program name are four
// independent unit populations in one table. Each kind's decision sequence
// matches its own in-process mirror over its own event stream, and reading
// one kind's state never shows another's.
func TestMixedKindIsolationSameProgram(t *testing.T) {
	_, c := newTestServer(t, Config{})
	const program = "gzip"

	kinds := []trace.Kind{trace.KindBranch, trace.KindValue, trace.KindMemdep, trace.KindTLSpec}
	type side struct {
		set   *core.PolicySet
		instr uint64
	}
	mirrors := map[trace.Kind]*side{}
	for _, k := range kinds {
		set, err := core.NewPolicySet(core.PolicyReactive, testParams())
		if err != nil {
			t.Fatal(err)
		}
		mirrors[k] = &side{set: set}
	}

	// Interleave batches across kinds so the streams advance together; the
	// per-kind event sequences differ (distinct seeds), so any cross-kind
	// state bleed would surface as a mirror mismatch.
	for round := 0; round < 4; round++ {
		for i, k := range kinds {
			evs := synthEvents(1500, uint64(100*i+round))
			ds, err := c.IngestKind(context.Background(), program, k, evs)
			if err != nil {
				t.Fatalf("round %d kind %s: %v", round, k, err)
			}
			if len(ds) != len(evs) {
				t.Fatalf("kind %s: %d decisions for %d events", k, len(ds), len(evs))
			}
			m := mirrors[k]
			for j, ev := range evs {
				m.instr += uint64(ev.Gap)
				v, st, dir, live := m.set.OnEvent(ev.Branch, ev.Taken, m.instr)
				want := Decision{Verdict: v, State: st, Dir: dir, Live: live}
				if ds[j] != want {
					t.Fatalf("round %d kind %s event %d: daemon %v, mirror %v", round, k, j, ds[j], want)
				}
			}
		}
	}

	// Point reads are isolated the same way: each kind's unit 0 reports its
	// own mirror's state under the shared program name.
	for _, k := range kinds {
		d, err := c.DecideKind(context.Background(), program, k, 0)
		if err != nil {
			t.Fatalf("DecideKind %s: %v", k, err)
		}
		m := mirrors[k]
		dir, live := m.set.Speculating(0)
		if d.State != m.set.UnitState(0).String() || d.Dir != dir || d.Live != live {
			t.Fatalf("kind %s decide = %+v, mirror state %s dir=%v live=%v",
				k, d, m.set.UnitState(0), dir, live)
		}
		if d.Kind != k.String() || d.Program != program {
			t.Fatalf("kind %s decide echoes %q/%q", k, d.Program, d.Kind)
		}
	}
}

// TestV1V2ByteExactBranch pins the /v1 → /v2 migration contract for
// kind=branch: a /v2 ingest answers with exactly the bytes the retired
// /v1/ingest sent — the RSPD encoding of the table's decisions — and trains
// the table entry under the plain program name, so state a /v1 client built
// resumes unchanged.
func TestV1V2ByteExactBranch(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ref := NewTable(s.cfg.Params)
	var instr uint64
	for i, b := range streamBatches(synthEvents(6000, 9), 1500) {
		resp, err := http.Post(c.base+"/v2/ingest?program=gzip&kind=branch", "application/octet-stream",
			bytes.NewReader(trace.AppendFrame(nil, b)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		var ds []byte
		ds, instr = ref.ApplyBatch("gzip", b, instr, nil)
		want := append([]byte{}, respMagic[:]...)
		want = binary.AppendUvarint(want, 1)
		want = append(want, ingestApplied)
		want = binary.AppendUvarint(want, uint64(len(ds)))
		want = append(want, ds...)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: kind=branch response differs from the /v1 encoding:\n got %x\nwant %x", i, got, want)
		}
	}
	if got, want := s.table.SnapshotEntries(), ref.SnapshotEntries(); !reflect.DeepEqual(got, want) {
		t.Fatal("kind=branch ingest did not train the plain program name's entry")
	}
}

// TestStreamProto3Proto4InteropByteExact is the cross-version stream pin
// for a client moving from proto 3 to proto 4: a proto-3 hello (no kind tag
// on its frames) gets exactly the proto_mismatch reject and a hang-up, and a
// proto-4 session carrying the explicit kind=branch tag gets exactly the
// proto-4 ack and, for every batch, exactly the decision frame a proto-3
// session was sent — RLE 'd' when its payload is strictly shorter, plain 'D'
// otherwise — over the reference table's decisions.
func TestStreamProto3Proto4InteropByteExact(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	evs := synthEvents(8000, 13)
	batches := streamBatches(evs, 1000)

	hello3 := trace.AppendHandshake(nil, trace.Handshake{Proto: 3, ParamsHash: s.paramsHash, Window: 4, Program: "gzip"})
	p3 := trace.EncodeFrameAppend(trace.AppendTraceContext(nil, 0), batches[0])
	hello3 = trace.AppendSessionFrame(hello3, trace.StreamFrameEvents, p3)
	conn3, br3 := dialRawHello(t, ln.Addr().String(), hello3, protoRejectAck(3))
	expectHangUp(t, conn3, br3)

	conn4, br4 := dialRawHello(t, ln.Addr().String(),
		rawHello(4, s.paramsHash, 4, "gzip"), proto4Ack(4, s.paramsHash))
	ref := NewTable(s.cfg.Params)
	var instr uint64
	var ds, got []byte
	for i, b := range batches {
		p4 := trace.EncodeFrameAppend(trace.AppendKind(trace.AppendTraceContext(nil, 0), trace.KindBranch), b)
		if _, err := conn4.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents, p4)); err != nil {
			t.Fatal(err)
		}
		ds, instr = ref.ApplyBatch("gzip", b, instr, ds[:0])
		want := trace.AppendSessionFrame(nil, trace.StreamFrameDecisions, trace.AppendDecisionsPlain(nil, ds))
		if rle := trace.AppendDecisionsRLE(nil, ds); len(rle) < len(trace.AppendDecisionsPlain(nil, ds)) {
			want = trace.AppendSessionFrame(nil, trace.StreamFrameDecisionsRLE, rle)
		}
		got = append(got[:0], make([]byte, len(want))...)
		if _, err := readFull(br4, got); err != nil {
			t.Fatalf("batch %d: reading decisions: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: proto-4 decision frame bytes changed:\n got %x\nwant %x", i, got, want)
		}
	}
	if n := s.table.Metrics().Events; n != uint64(len(evs)) {
		t.Fatalf("server applied %d events, want the proto-4 session's %d alone", n, len(evs))
	}
}

// TestWALKindTransparentRecovery pins that the WAL treats kind-encoded
// program keys as opaque: a crash after mixed-kind ingest recovers to the
// exact controller state of the crashed server, including the non-branch
// entries, with no WAL format change (branch records still carry the plain
// program name a pre-kind build wrote).
func TestWALKindTransparentRecovery(t *testing.T) {
	env := newWALEnv(t)
	l := env.openLog(t, wal.SyncAlways)
	victim, vc := env.newServer(t, l)

	type kindBatch struct {
		program string
		kind    trace.Kind
		n       int
		seed    uint64
	}
	batches := []kindBatch{
		{"gzip", trace.KindBranch, 3000, 1},
		{"gzip", trace.KindValue, 2500, 2},
		{"vpr", trace.KindMemdep, 2000, 3},
		{"gzip", trace.KindTLSpec, 1500, 4},
		{"gzip", trace.KindBranch, 1000, 5},
		{"vpr", trace.KindValue, 500, 6},
	}
	for _, b := range batches {
		if _, err := vc.IngestKind(context.Background(), b.program, b.kind, synthEvents(b.n, b.seed)); err != nil {
			t.Fatalf("%s/%s: %v", b.program, b.kind, err)
		}
	}
	crashed := victim.table.SnapshotEntries()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := env.openLog(t, wal.SyncAlways)
	recovered, _ := env.newServer(t, l2)
	res, err := recovered.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if got := recovered.table.SnapshotEntries(); !reflect.DeepEqual(got, crashed) {
		t.Fatal("recovered mixed-kind entries differ from the crashed server's")
	}

	// The WAL's branch records carry the plain program name — what a
	// pre-kind daemon wrote — so a pre-refactor log is just the branch-only
	// special case of this replay.
	for _, b := range batches {
		want := trace.EncodeKindProgram(b.kind, b.program)
		d := recovered.table.DecideKind(b.program, b.kind, 0)
		if d == (Decision{}) && b.kind == trace.KindBranch {
			t.Fatalf("no recovered state under key %q", want)
		}
	}
}

// TestSnapshotPolicyRoundTripAndMismatch pins the snapshot policy contract:
// a snapshot restores into a server running the same policy (resuming the
// identical decision stream), and a server running a different policy
// rejects it with ErrSnapshotMismatch instead of silently reinterpreting
// the frozen state under different transition rules.
func TestSnapshotPolicyRoundTripAndMismatch(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			s, c := newTestServer(t, Config{SnapshotDir: dir, Policy: policy})
			evs := synthEvents(4000, 7)
			if _, err := c.IngestKind(context.Background(), "p", trace.KindValue, evs[:2000]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}

			same := New(Config{Params: testParams(), SnapshotDir: dir, Policy: policy})
			if _, err := same.RestoreFromDisk(); err != nil {
				t.Fatalf("restore into same policy: %v", err)
			}
			key := trace.EncodeKindProgram(trace.KindValue, "p")
			// Each side continues from its own cursor: the restored one
			// must have come back with the snapshotted position.
			wantTail := s.table.partition(key).apply(evs[2000:], nil)
			gotTail := same.table.partition(key).apply(evs[2000:], nil)
			if !bytes.Equal(gotTail, wantTail) {
				t.Fatal("restored server's future decisions diverge from the snapshotted one's")
			}

			for _, other := range core.PolicyNames() {
				if other == policy {
					continue
				}
				mismatched := New(Config{Params: testParams(), SnapshotDir: dir, Policy: other})
				if _, err := mismatched.RestoreFromDisk(); !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("restore of %s snapshot into %s server = %v, want ErrSnapshotMismatch",
						policy, other, err)
				}
			}
		})
	}
}

// TestParamsPolicyHash pins the compatibility-critical hash property: the
// reactive policy (and the empty legacy spelling) leaves ParamsHash
// untouched, so every pre-policy artifact keeps verifying, while each other
// registered policy produces a distinct hash under identical parameters.
func TestParamsPolicyHash(t *testing.T) {
	p := testParams()
	if ParamsPolicyHash(p, "") != ParamsHash(p) || ParamsPolicyHash(p, core.PolicyReactive) != ParamsHash(p) {
		t.Fatal("reactive/empty policy perturbs the params hash")
	}
	seen := map[uint64]string{ParamsHash(p): core.PolicyReactive}
	for _, name := range core.PolicyNames() {
		if name == core.PolicyReactive {
			continue
		}
		h := ParamsPolicyHash(p, name)
		if prev, dup := seen[h]; dup {
			t.Fatalf("policies %q and %q collide at %016x", prev, name, h)
		}
		seen[h] = name
	}
}

// TestPolicyServerMatchesPolicySet drives a non-reactive daemon end to end
// and checks its decisions against the in-process PolicySet — the serving
// path and the experiment/verification path agree for every policy, not
// just the fast-path reactive one.
func TestPolicyServerMatchesPolicySet(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			_, c := newTestServer(t, Config{Policy: policy})
			set, err := core.NewPolicySet(policy, testParams())
			if err != nil {
				t.Fatal(err)
			}
			var instr uint64
			for _, b := range streamBatches(synthEvents(6000, 17), 1200) {
				ds, err := c.IngestKind(context.Background(), "p", trace.KindMemdep, b)
				if err != nil {
					t.Fatal(err)
				}
				for j, ev := range b {
					instr += uint64(ev.Gap)
					v, st, dir, live := set.OnEvent(ev.Branch, ev.Taken, instr)
					want := Decision{Verdict: v, State: st, Dir: dir, Live: live}
					if ds[j] != want {
						t.Fatalf("event %d: daemon %v, policy set %v", j, ds[j], want)
					}
				}
			}
		})
	}
}

// TestServesKindConfig pins the -kinds restriction surface: a configured
// subset is what /v1/info advertises and what ServesKind answers.
func TestServesKindConfig(t *testing.T) {
	s := New(Config{Params: testParams(), Kinds: []trace.Kind{trace.KindBranch, trace.KindTLSpec}})
	for _, tc := range []struct {
		kind trace.Kind
		want bool
	}{
		{trace.KindBranch, true},
		{trace.KindValue, false},
		{trace.KindMemdep, false},
		{trace.KindTLSpec, true},
	} {
		if got := s.ServesKind(tc.kind); got != tc.want {
			t.Errorf("ServesKind(%s) = %v, want %v", tc.kind, got, tc.want)
		}
	}
	if names := s.KindNames(); !reflect.DeepEqual(names, []string{"branch", "tlspec"}) {
		t.Fatalf("KindNames() = %v", names)
	}
	if s.ServesKind(trace.Kind(99)) {
		t.Fatal("an invalid kind reports as served")
	}
	if fmt.Sprint(New(Config{Params: testParams()}).KindNames()) != fmt.Sprint(trace.KindNames()) {
		t.Fatal("an empty Kinds config does not default to serving every kind")
	}
}
