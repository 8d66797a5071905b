package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Params == (core.Params{}) {
		cfg.Params = testParams()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL, ts.Client())
}

func TestIngestAndDecide(t *testing.T) {
	s, c := newTestServer(t, Config{})
	evs := synthEvents(30_000, 3)

	// Ingest in several batches; decisions must match a direct table run.
	want := func() []byte {
		tab := NewTable(s.cfg.Params)
		var instr uint64
		return applyAll(tab, "gzip", evs, &instr)
	}()
	var got []byte
	for off := 0; off < len(evs); off += 7000 {
		end := off + 7000
		if end > len(evs) {
			end = len(evs)
		}
		ds, err := c.Ingest(context.Background(), "gzip", evs[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			got = append(got, d.Encode())
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("networked decisions differ from direct table decisions")
	}

	// Decide must agree with the table's view.
	dr, err := c.DecideKind(context.Background(), "gzip", trace.KindBranch, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Table().Decide("gzip", 0)
	if (dr.State != d.State.String()) || dr.Live != d.Live || dr.Dir != d.Dir {
		t.Fatalf("decide %+v, table %v", dr, d)
	}

	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Events != uint64(len(evs)) || h.Programs != 1 {
		t.Fatalf("health %+v", h)
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"reactived_table_misspec_rate",
		"reactived_table_transitions_total{state=\"biased\"}",
		"reactived_table_entries 24",
		"reactived_batch_latency_seconds{quantile=\"0.99\"}",
		"reactived_batches_total 5",
		"reactived_table_events_total 30000",
		"reactived_ingest_decode_seconds{quantile=\"0.99\"}",
		"reactived_ingest_apply_seconds_count 5",
		"reactived_ingest_respond_seconds_count 5",
		"reactived_ingest_batch_events{quantile=\"0.5\"}",
		"reactived_uptime_seconds",
		"reactived_draining 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(m, "shard=") {
		t.Error("metrics still carry a shard label")
	}
	// Every sample line belongs to a family that declared # HELP/# TYPE
	// metadata under the uniform reactived_ prefix (the registry's
	// exposition writer guarantees this; pin it end to end).
	typed := map[string]bool{}
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
		}
	}
	for _, line := range strings.Split(m, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !strings.HasPrefix(name, "reactived_") {
			t.Errorf("metric %q lacks the reactived_ prefix", name)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")
		if !typed[name] && !typed[family] {
			t.Errorf("sample %q has no # TYPE metadata", name)
		}
	}
}

// TestIngestRejectsBadFramePerBatch sends [good, corrupt, good] frames in one
// request: the corrupt frame must be rejected alone, with both good frames
// applied.
func TestIngestRejectsBadFramePerBatch(t *testing.T) {
	s, c := newTestServer(t, Config{})

	good1 := synthEvents(500, 11)
	good2 := synthEvents(500, 13)
	corrupt, err := trace.EncodeFrame(synthEvents(400, 12))
	if err != nil {
		t.Fatal(err)
	}
	corrupt[len(corrupt)/2] ^= 0xff

	var body bytes.Buffer
	if err := trace.WriteFrame(&body, good1); err != nil {
		t.Fatal(err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(corrupt)))
	body.Write(hdr[:n])
	body.Write(corrupt)
	if err := trace.WriteFrame(&body, good2); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/ingest?program=p&kind=branch", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s, want 200 (per-batch rejection, not per-connection)", resp.Status)
	}
	results, truncated, err := parseIngestResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != "" {
		t.Fatalf("unexpected truncation record: %q", truncated)
	}
	if len(results) != 3 {
		t.Fatalf("%d frame results, want 3", len(results))
	}
	if results[0].Err != nil || len(results[0].Decisions) != len(good1) {
		t.Fatalf("frame 0: %+v", results[0])
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "rejected") {
		t.Fatalf("frame 1 not rejected: %+v", results[1])
	}
	if results[2].Err != nil || len(results[2].Decisions) != len(good2) {
		t.Fatalf("frame 2: %+v", results[2])
	}

	// Only the good frames' events must have been applied.
	total := s.Table().Metrics()
	if want := uint64(len(good1) + len(good2)); total.Events != want {
		t.Fatalf("applied %d events, want %d", total.Events, want)
	}

	// The service stays up for the next batch (per-batch, not per-connection).
	if _, err := c.Ingest(context.Background(), "p", good1); err != nil {
		t.Fatalf("follow-up batch failed: %v", err)
	}
}

// TestIngestBadQueryAndMethod checks request validation.
func TestIngestBadQueryAndMethod(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/ingest?kind=branch", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing program: status %s, want 400", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v2/ingest?program=p&kind=branch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: status %s, want 405", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v2/decide?program=p&kind=branch&id=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad branch: status %s, want 400", resp.Status)
	}
}

// TestDrainRejectsNewIngest checks the graceful-shutdown gate.
func TestDrainRejectsNewIngest(t *testing.T) {
	s, c := newTestServer(t, Config{})
	if _, err := c.Ingest(context.Background(), "p", synthEvents(100, 1)); err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	if _, err := c.Ingest(context.Background(), "p", synthEvents(100, 2)); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("ingest while draining: err = %v, want 503", err)
	}
	// Read-only endpoints keep serving.
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining {
		t.Fatal("health must report draining")
	}
	if _, err := c.DecideKind(context.Background(), "p", trace.KindBranch, 0); err != nil {
		t.Fatalf("decide while draining: %v", err)
	}
}

// TestConcurrentIngestDistinctPrograms checks the serving path under the
// race detector with parallel clients.
func TestConcurrentIngestDistinctPrograms(t *testing.T) {
	s, c := newTestServer(t, Config{})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			evs := synthEvents(5_000, uint64(w)*31)
			program := "prog-" + string(rune('a'+w))
			for off := 0; off < len(evs); off += 1000 {
				if _, err := c.Ingest(context.Background(), program, evs[off:off+1000]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := s.Table().Metrics()
	if want := uint64(workers * 5_000); total.Events != want {
		t.Fatalf("total events %d, want %d", total.Events, want)
	}
}
