// Benchmarks for the batched ingest hot path: per-event Apply vs the
// batch-grouped ApplyBatch on the same event stream, and the full HTTP
// ingest handler (decode + apply + respond) with allocation accounting.
// scripts/bench.sh runs these and records the numbers in BENCH_ingest.json.
package reactivespec_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// benchBurstyEvents generates the loop-dominated stream real traces look
// like: bursts of one branch (geometric, mean ~meanBurst) over a small
// working set, so consecutive events usually hit the same branch — the case
// the batch path's last-slot cache amortizes.
func benchBurstyEvents(n, nbranch, meanBurst int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for len(evs) < n {
		r := next()
		branch := trace.BranchID(r) % trace.BranchID(nbranch)
		burst := 1 + int(r>>40)%(2*meanBurst)
		for j := 0; j < burst && len(evs) < n; j++ {
			r = next()
			evs = append(evs, trace.Event{
				Branch: branch,
				Taken:  r&7 < 5,
				Gap:    uint32(4 + r>>56&7),
			})
		}
	}
	return evs
}

const benchIngestEvents = 1 << 15

// BenchmarkTableApply is the per-event baseline: one partition lookup, one
// lock acquisition and one slot lookup per event.
func BenchmarkTableApply(b *testing.B) {
	evs := benchBurstyEvents(benchIngestEvents, 64, 24)
	t := server.NewTable(core.DefaultParams().Scaled(10))
	var instr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range evs {
			instr += uint64(ev.Gap)
			t.Apply("bench", ev, instr)
		}
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

// BenchmarkTableApplyBatch is the batch path over the identical stream: one
// partition lookup and lock acquisition per batch, slot lookups skipped for
// repeated branches.
func BenchmarkTableApplyBatch(b *testing.B) {
	evs := benchBurstyEvents(benchIngestEvents, 64, 24)
	t := server.NewTable(core.DefaultParams().Scaled(10))
	var instr uint64
	dst := make([]byte, 0, len(evs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, instr = t.ApplyBatch("bench", evs, instr, dst[:0])
		if len(dst) != len(evs) {
			b.Fatalf("%d decisions for %d events", len(dst), len(evs))
		}
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

// BenchmarkTableApplyBatchKind is the kind-generic serving path over the
// identical stream: same batch path, but the events enter as a
// non-branch kind, so every apply pays the kind-program key encoding the
// v2 API threads through the table. scripts/bench.sh gates this row
// against BenchmarkTableApplyBatch: generalizing the hot path over kinds
// must cost at most a few percent versus branch-only.
func BenchmarkTableApplyBatchKind(b *testing.B) {
	evs := benchBurstyEvents(benchIngestEvents, 64, 24)
	t := server.NewTable(core.DefaultParams().Scaled(10))
	var instr uint64
	dst := make([]byte, 0, len(evs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, instr = t.ApplyBatchKind("bench", trace.KindValue, evs, instr, dst[:0])
		if len(dst) != len(evs) {
			b.Fatalf("%d decisions for %d events", len(dst), len(evs))
		}
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

// BenchmarkTableWarmup measures first touch, the cost of a daemon warming
// up on a new program: each op builds a fresh table and applies one event
// to each of 64k units in 1024-event batches, so every event assigns a
// slot. dense0 numbers the units from 0 and offset from 2^31, both resolved
// by the slot index's direct window; hostile sends random uint32 IDs, which
// the index's map takes. It reports ns/event.
func BenchmarkTableWarmup(b *testing.B) {
	const units, batch = 1 << 16, 1024
	x := uint64(0x2545f4914f6cdd1d)
	for _, c := range []struct {
		name string
		id   func(i int) trace.BranchID
	}{
		{"dense0", func(i int) trace.BranchID { return trace.BranchID(i) }},
		{"offset", func(i int) trace.BranchID { return trace.BranchID(1<<31 + i) }},
		{"hostile", func(int) trace.BranchID {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return trace.BranchID(x)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			evs := make([]trace.Event, units)
			for i := range evs {
				evs[i] = trace.Event{Branch: c.id(i), Taken: i%3 != 0, Gap: uint32(1 + i%7)}
			}
			dst := make([]byte, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := server.NewTable(core.DefaultParams().Scaled(10))
				var instr uint64
				for off := 0; off < len(evs); off += batch {
					dst, instr = t.ApplyBatch("warm", evs[off:min(off+batch, len(evs))], instr, dst[:0])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// discardResponseWriter is an http.ResponseWriter that throws the response
// away, so the handler benchmark measures the handler, not a recorder.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(int)             {}

// BenchmarkIngestHandler measures the whole POST /v2/ingest path — frame
// decode, batched apply, response encode — on one pre-encoded batch per op.
// Allocations per op are the tracked number: the pooled scratch should hold
// them near-constant in batch size.
func BenchmarkIngestHandler(b *testing.B) {
	s := server.New(server.Config{Params: core.DefaultParams().Scaled(10)})
	h := s.Handler()
	evs := benchBurstyEvents(benchIngestEvents, 64, 24)
	body := trace.AppendFrame(nil, evs)

	req := httptest.NewRequest(http.MethodPost,
		"/v2/ingest?program=bench&kind=branch", bytes.NewReader(body))
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}
