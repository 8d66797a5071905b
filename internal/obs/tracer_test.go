package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// A nil tracer must be a complete no-op: every method callable, zero IDs.
func TestTracerNilFastPath(t *testing.T) {
	var tr *Tracer
	if got := tr.SampleBatch(); got != 0 {
		t.Fatalf("nil SampleBatch = %d, want 0", got)
	}
	if tr.SampleInfra() {
		t.Fatal("nil SampleInfra = true")
	}
	if got := tr.SpanID(); got != 0 {
		t.Fatalf("nil SpanID = %d, want 0", got)
	}
	if got := tr.RecordStage(1, 0, "batch", "p", 1, 0, time.Now(), time.Second); got != 0 {
		t.Fatalf("nil RecordStage = %d, want 0", got)
	}
	tr.Record(Span{Span: 1})
	tr.RecordInfra("wal_fsync", time.Now(), time.Millisecond)
	tr.NoteSeq(5, 9)
	if got := tr.TraceForSeq(5); got != 0 {
		t.Fatalf("nil TraceForSeq = %d, want 0", got)
	}
	tr.SetOutput(&bytes.Buffer{})
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer("n", 4)
	traced := 0
	for i := 0; i < 400; i++ {
		if tr.SampleBatch() != 0 {
			traced++
		}
	}
	if traced != 100 {
		t.Fatalf("1-in-4 sampling over 400 batches traced %d, want 100", traced)
	}
	off := NewTracer("n", 0)
	for i := 0; i < 10; i++ {
		if off.SampleBatch() != 0 {
			t.Fatal("sample=0 tracer sampled a batch")
		}
	}
}

func TestTracerJSONLDeterministic(t *testing.T) {
	span := Span{Trace: 7, Span: 9, Parent: 3, Stage: "decode", Program: "gzip",
		Events: 512, Seq: 42, Start: 1000, Dur: 2000}
	render := func() string {
		var buf bytes.Buffer
		tr := NewTracer("primary", 1)
		tr.SetOutput(&buf)
		tr.Record(span)
		tr.Close()
		return buf.String()
	}
	a, b := render(), b2(render)
	if a != b {
		t.Fatalf("identical spans encoded differently:\n%q\n%q", a, b)
	}
	want := `{"trace":7,"span":9,"parent":3,"node":"primary","stage":"decode","program":"gzip","events":512,"seq":42,"start":1000,"dur":2000}` + "\n"
	if a != want {
		t.Fatalf("span JSONL = %q, want %q", a, want)
	}
}

func b2(f func() string) string { return f() }

// TestTracerJSONLQuotesControlBytes pins that every program name survives
// the JSONL round trip, including kind-keyed names that start with a NUL
// byte and names with quotes or backslashes.
func TestTracerJSONLQuotesControlBytes(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("primary", 1)
	tr.SetOutput(&buf)
	programs := []string{"gzip", "\x00\x01gzip", "a\"b\\c\n\x1f", "caf\u00e9@0"}
	for i, p := range programs {
		tr.Record(Span{Trace: 1, Span: uint64(i + 1), Stage: "batch", Program: p})
	}
	tr.Close()
	if !strings.Contains(buf.String(), `"program":"\u0000\u0001gzip"`) {
		t.Fatalf("NUL not escaped as \\u0000:\n%s", buf.String())
	}
	spans, dropped, err := LoadSpans(&buf)
	if err != nil || dropped != 0 || len(spans) != len(programs) {
		t.Fatalf("LoadSpans: %d spans, %d dropped, %v", len(spans), dropped, err)
	}
	for i, p := range programs {
		if spans[i].Program != p {
			t.Errorf("span %d program %q, want %q", i, spans[i].Program, p)
		}
	}
}

func TestTracerSeqTable(t *testing.T) {
	tr := NewTracer("n", 1)
	tr.NoteSeq(100, 7)
	tr.NoteSeq(101, 8)
	if got := tr.TraceForSeq(100); got != 7 {
		t.Fatalf("TraceForSeq(100) = %d, want 7", got)
	}
	if got := tr.TraceForSeq(101); got != 8 {
		t.Fatalf("TraceForSeq(101) = %d, want 8", got)
	}
	if got := tr.TraceForSeq(99); got != 0 {
		t.Fatalf("TraceForSeq(99) = %d, want 0 (never noted)", got)
	}
	// Eviction: a colliding slot forgets the old seq rather than lying.
	tr.NoteSeq(100+seqTableSize, 9)
	if got := tr.TraceForSeq(100); got != 0 {
		t.Fatalf("TraceForSeq(100) after eviction = %d, want 0", got)
	}
	if got := tr.TraceForSeq(100 + seqTableSize); got != 9 {
		t.Fatalf("TraceForSeq(evictor) = %d, want 9", got)
	}
}

func TestTracerRingDump(t *testing.T) {
	tr := NewTracer("n", 1)
	for i := 0; i < 3; i++ {
		tr.RecordStage(uint64(i+1), 0, "batch", "p", 1, 0, time.Unix(0, int64(i)), time.Duration(i))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("ring dump has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	spans, dropped, err := LoadSpans(&buf)
	if err != nil || dropped != 0 {
		t.Fatalf("LoadSpans: %v dropped=%d", err, dropped)
	}
	if len(spans) != 3 {
		t.Fatalf("LoadSpans = %d spans, want 3", len(spans))
	}
}

// Distinct node names must produce disjoint ID spaces, so concatenated span
// files never collide.
func TestTracerNodeSaltedIDs(t *testing.T) {
	a, b := NewTracer("primary", 1), NewTracer("replica", 1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, id := range []uint64{a.SpanID(), b.SpanID()} {
			if id == 0 || seen[id] {
				t.Fatalf("ID collision or zero: %d", id)
			}
			seen[id] = true
		}
	}
}

func TestSpanReportAttribution(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("primary", 1)
	tr.SetOutput(&buf)
	// One traced batch: root 1000ns, children covering 950ns, plus ship and
	// a follower apply on the same trace.
	trace := uint64(11)
	root := tr.SpanID()
	tr.Record(Span{Trace: trace, Span: root, Stage: "batch", Program: "gzip", Events: 64, Start: 0, Dur: 1000})
	for _, c := range []struct {
		stage string
		dur   int64
	}{{"decode", 200}, {"wal_append", 300}, {"fsync", 250}, {"apply", 150}, {"respond", 50}} {
		tr.Record(Span{Trace: trace, Span: tr.SpanID(), Parent: root, Stage: c.stage, Dur: c.dur})
	}
	tr.Record(Span{Trace: trace, Span: tr.SpanID(), Stage: "ship", Seq: 1, Dur: 100})
	tr.Record(Span{Trace: trace, Span: tr.SpanID(), Stage: "follower_apply", Seq: 1, Dur: 80})
	tr.Close()

	spans, dropped, err := LoadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildSpanReport(spans, dropped)
	if rep.Batches != 1 || rep.Traces != 1 {
		t.Fatalf("report batches=%d traces=%d, want 1/1", rep.Batches, rep.Traces)
	}
	if rep.CoveragePct < 94.9 || rep.CoveragePct > 95.1 {
		t.Fatalf("coverage = %.2f%%, want 95%%", rep.CoveragePct)
	}
	if rep.CompleteChains != 1 {
		t.Fatalf("complete chains = %d, want 1", rep.CompleteChains)
	}
	var table, csv, svg bytes.Buffer
	if err := WriteSpanReport(&table, rep, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpanReport(&csv, rep, true); err != nil {
		t.Fatal(err)
	}
	if err := SVGSpanReport(&svg, rep); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"wal_append", "complete ingest→wal→ship→follower chains: 1"} {
		if !strings.Contains(table.String(), s) {
			t.Fatalf("table output missing %q:\n%s", s, table.String())
		}
	}
	if !strings.HasPrefix(csv.String(), "stage,count,p50_ms,p99_ms,mean_ms,pct_of_batch\n") {
		t.Fatalf("csv header wrong:\n%s", csv.String())
	}
	if !strings.HasPrefix(svg.String(), "<svg") {
		t.Fatal("svg output is not SVG")
	}
}

// A torn final line (SIGKILL mid-write) is skipped, not fatal.
func TestLoadSpansTornTail(t *testing.T) {
	input := `{"trace":1,"span":2,"parent":0,"node":"n","stage":"batch","program":"p","events":1,"seq":0,"start":0,"dur":10}` + "\n" +
		`{"trace":1,"span":3,"parent":2,"node":"n","sta`
	spans, dropped, err := LoadSpans(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || dropped != 1 {
		t.Fatalf("spans=%d dropped=%d, want 1/1", len(spans), dropped)
	}
}
