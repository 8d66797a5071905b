package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"strings"
	"testing"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// metricSample returns the value of the exposition sample line named name
// (no labels) in reg, failing the test when the line is absent.
func metricSample(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("no %s sample in the exposition", name)
	return ""
}

// corruptBatchBody is a POST body of [good, corrupt, good] frames: the
// middle frame's framing is intact but its payload does not decode.
func corruptBatchBody(t *testing.T, good1, bad, good2 []trace.Event) *bytes.Buffer {
	t.Helper()
	var body bytes.Buffer
	if err := trace.WriteFrame(&body, good1); err != nil {
		t.Fatal(err)
	}
	corrupt := trace.EncodeFrameAppend(nil, bad)
	corrupt[len(corrupt)/2] ^= 0xff
	var hdr [binary.MaxVarintLen64]byte
	body.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(corrupt)))])
	body.Write(corrupt)
	if err := trace.WriteFrame(&body, good2); err != nil {
		t.Fatal(err)
	}
	return &body
}

// TestIngestPathCounters pins what each ingest route counts: fixed traffic
// through POST /v2, one stream session and ApplyReplicated lands on
// exact values of the per-transport counters and of the apply-latency and
// batch-size summaries, which only client transports feed.
func TestIngestPathCounters(t *testing.T) {
	ctx := context.Background()
	env := newWALEnv(t)
	l := env.openLog(t, wal.SyncNever)
	t.Cleanup(func() { l.Close() })
	s, c := env.newServer(t, l)

	// POST: a two-frame batch, a batch with one corrupt frame of three, a
	// one-frame batch, and a batch of another kind.
	if _, _, err := c.IngestFrames(ctx, "post", trace.KindBranch, [][]trace.Event{synthEvents(300, 1), synthEvents(200, 2)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.base+"/v2/ingest?program=post&kind=branch", "application/octet-stream",
		corruptBatchBody(t, synthEvents(100, 3), synthEvents(100, 4), synthEvents(100, 5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt-frame batch: %s", resp.Status)
	}
	if _, err := c.Ingest(ctx, "post", synthEvents(50, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestKind(ctx, "post", trace.KindValue, synthEvents(70, 7)); err != nil {
		t.Fatal(err)
	}

	// Stream: three branch frames, one corrupt frame, one value frame.
	st, err := c.OpenStream(ctx, "strm")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := st.Send(ctx, synthEvents(120, 10+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SendEncoded(ctx, []byte("not a trace frame"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(ctx); err == nil {
		t.Fatal("corrupt stream frame was not rejected")
	}
	if err := st.SendKind(ctx, trace.KindValue, synthEvents(40, 14)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Replication: three records into a replica.
	rl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })
	r := New(Config{Params: testParams(), WAL: rl, Replica: true})
	for i, n := range []int{90, 60, 30} {
		if err := r.ApplyReplicated("repl", synthEvents(n, uint64(20+i)), 0); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		reg  *obs.Registry
		name string
		want string
	}{
		// Four POST batches; the all-applied and partly-rejected ones alike.
		{s.Registry(), "reactived_batches_total", "4"},
		// Every event frame a session receives, rejected or not.
		{s.Registry(), "reactived_stream_frames_total", "5"},
		{s.Registry(), "reactived_frames_rejected_total", "2"},
		{s.Registry(), "reactived_replication_applied_records_total", "0"},
		{s.Registry(), "reactived_replication_applied_events_total", "0"},
		// One observation per POST batch and per applied stream frame.
		{s.Registry(), "reactived_ingest_apply_seconds_count", "8"},
		{s.Registry(), "reactived_ingest_batch_events_count", "8"},
		{s.Registry(), "reactived_ingest_batch_events_sum", "1220"},
		{s.Registry(), "reactived_wal_appended_records_total", "10"},
		{s.Registry(), "reactived_table_events_total", "1220"},

		{r.Registry(), "reactived_batches_total", "0"},
		{r.Registry(), "reactived_stream_frames_total", "0"},
		{r.Registry(), "reactived_frames_rejected_total", "0"},
		{r.Registry(), "reactived_replication_applied_records_total", "3"},
		{r.Registry(), "reactived_replication_applied_events_total", "180"},
		{r.Registry(), "reactived_ingest_apply_seconds_count", "0"},
		{r.Registry(), "reactived_ingest_batch_events_count", "0"},
		{r.Registry(), "reactived_wal_appended_records_total", "3"},
		{r.Registry(), "reactived_table_events_total", "180"},
	} {
		role := "primary"
		if c.reg == r.Registry() {
			role = "replica"
		}
		if got := metricSample(t, c.reg, c.name); got != c.want {
			t.Errorf("%s %s = %s, want %s", role, c.name, got, c.want)
		}
	}
}

// TestIngestSpanTreesMatchAcrossPaths pins one span tree on every client
// transport: a traced POST /v2 batch and a traced stream frame of the same
// non-branch kind each record a batch root with the same five contiguous
// children, all inside the root and all labelled with the partition's table
// key; ApplyReplicated records follower_apply under the primary's trace.
func TestIngestSpanTreesMatchAcrossPaths(t *testing.T) {
	ctx := context.Background()
	tracer := obs.NewTracer("primary", 1)
	defer tracer.Close()
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams()), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	_, c := newTestServer(t, Config{WAL: l, Trace: tracer})

	if _, err := c.IngestKind(ctx, "post", trace.KindValue, synthEvents(300, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(ctx, "strm")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendKind(ctx, trace.KindValue, synthEvents(200, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, _, err := obs.LoadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]obs.Span{}
	for _, sp := range spans {
		if sp.Stage == "batch" {
			roots[sp.Program] = sp
		}
	}
	want := map[string]int{
		trace.EncodeKindProgram(trace.KindValue, "post"): 300,
		trace.EncodeKindProgram(trace.KindValue, "strm"): 200,
	}
	if len(roots) != len(want) {
		t.Fatalf("batch roots labelled %q, want one per key of %q", keysOf(roots), keysOf(want))
	}
	var postTrace uint64
	for key, events := range want {
		root, ok := roots[key]
		if !ok {
			t.Fatalf("no batch root labelled %q (roots: %q)", key, keysOf(roots))
		}
		if root.Events != events || root.Trace == 0 || root.Parent != 0 {
			t.Errorf("%q root = %+v", key, root)
		}
		if key == trace.EncodeKindProgram(trace.KindValue, "post") {
			postTrace = root.Trace
		}
		var stages []string
		for _, sp := range spans {
			if sp.Parent != root.Span {
				continue
			}
			stages = append(stages, sp.Stage)
			if sp.Trace != root.Trace || sp.Program != key {
				t.Errorf("%q child %s: trace %d program %q, want %d %q",
					key, sp.Stage, sp.Trace, sp.Program, root.Trace, key)
			}
			if sp.Start < root.Start || sp.Start+sp.Dur > root.Start+root.Dur {
				t.Errorf("%q child %s [%d, +%d) outside root [%d, +%d)",
					key, sp.Stage, sp.Start, sp.Dur, root.Start, root.Dur)
			}
		}
		if got := strings.Join(stages, ","); got != "decode,wal_append,fsync,apply,respond" {
			t.Errorf("%q children = %s, want decode,wal_append,fsync,apply,respond", key, got)
		}
	}

	rtracer := obs.NewTracer("replica", 1)
	defer rtracer.Close()
	rl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })
	r := New(Config{Params: testParams(), WAL: rl, Replica: true, Trace: rtracer})
	key := trace.EncodeKindProgram(trace.KindValue, "post")
	if err := r.ApplyReplicated(key, synthEvents(300, 1), postTrace); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rtracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if spans, _, err = obs.LoadSpans(&buf); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("replica recorded %d spans, want one follower_apply: %+v", len(spans), spans)
	}
	if sp := spans[0]; sp.Stage != "follower_apply" || sp.Trace != postTrace || sp.Parent != 0 ||
		sp.Program != key || sp.Events != 300 || sp.Seq != 0 || sp.Node != "replica" {
		t.Fatalf("replica span = %+v, want follower_apply of %q under trace %d", sp, key, postTrace)
	}
}

// keysOf lists a map's keys (diagnostics only).
func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
