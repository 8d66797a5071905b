package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// daemonSpanSeconds is the length of each untraced and traced daemon run
// the span comparison makes.
const daemonSpanSeconds = 2

// daemonSpans runs stream-hop against the daemon with its own span sampling
// (-trace-spans) and without, alternating, to measure the sampling's
// overhead; then feeds the span file to `reactivespec spans` and sets its
// per-stage split beside the ladder's blocking-path split.
func daemonSpans(o options, traced *inputs, rep *report, stats map[string]*layerStat) error {
	in, err := buildInputs(traced.workload, traced.seed, daemonSpanSeconds*2, false)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	dir := filepath.Join("run", fmt.Sprintf("spans-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	// The file is emptied before each traced daemon starts, so it holds
	// the last one's spans: two daemons' trace ids may coincide, and the
	// analyzer would merge their batches.
	spanFile := filepath.Join(o.bin, "out", "daemon-spans-"+in.workload+".jsonl")
	rates := map[bool][]float64{}
	for _, tracing := range []bool{false, true, false, true} {
		in.daemonArgs = nil
		if tracing {
			os.Remove(spanFile)
			in.daemonArgs = []string{"-trace-spans", spanFile, "-trace-sample", "16"}
		}
		os.RemoveAll(dir)
		e, _, err := setUp(ctx, o, in, dir, rep)
		if err != nil {
			return err
		}
		start := time.Now()
		stop := start.Add(daemonSpanSeconds * time.Second)
		results := make([]laneResult, len(in.lanes))
		var wg sync.WaitGroup
		for i, l := range in.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = pumpStream(ctx, e.streams[i], l.run, stop, e.acked[i], rep, nil, -1)
			}()
		}
		wg.Wait()
		e.close()
		var events int64
		last := start
		for _, r := range results {
			rep.attempted += r.ops
			if r.failed > 0 || r.err != nil {
				rep.fail(r.failed, "span comparison run: %v", r.err)
			}
			events += r.events
			if r.lastAck.After(last) {
				last = r.lastAck
			}
		}
		rates[tracing] = append(rates[tracing], float64(events)/last.Sub(start).Seconds())
	}
	off, on := median(rates[false]), median(rates[true])
	rep.add("daemon.events_per_s.untraced", off, "ev/s", len(rates[false]))
	rep.add("daemon.events_per_s.traced", on, "ev/s", len(rates[true]))
	rep.add("daemon.tracing_overhead_frac", 1-on/off, "ratio", len(rates[true]))

	out, err := exec.Command(filepath.Join(o.bin, "reactivespec"), "-format", "csv", "spans", spanFile).Output()
	if err != nil {
		return fmt.Errorf("reactivespec spans: %w", err)
	}
	pct := map[string]float64{}
	r := csv.NewReader(strings.NewReader(string(out)))
	r.Comment = '#'
	rows, err := r.ReadAll()
	if err != nil {
		return fmt.Errorf("parsing reactivespec spans output: %w", err)
	}
	for _, row := range rows[1:] {
		if len(row) == 6 {
			pct[row[0]], _ = strconv.ParseFloat(row[5], 64)
		}
	}
	// The daemon's stream stages against the ladder's blocking path:
	// decode ~ trace.validate, apply ~ server.table.apply_frame, respond ~
	// decision encoding plus the write.
	pairs := []struct{ stage, layer string }{
		{"decode", "pipeline.trace.validate"},
		{"apply", "pipeline.server.table.apply_frame"},
		{"respond", "pipeline.trace.decisions.plain"},
	}
	var sum float64
	for _, p := range pairs {
		sum += perEvent(stats, p.layer)
	}
	for _, p := range pairs {
		share := 100 * perEvent(stats, p.layer) / sum
		rep.add("spans."+p.stage+"_pct_of_batch", pct[p.stage], "%", 0)
		rep.add("ladder."+p.stage+"_pct_of_path", share, "%", 0)
	}
	rep.note("stage split: daemon spans decode/apply/respond %.1f/%.1f/%.1f%% of batch time; ladder %.1f/%.1f/%.1f%% of the blocking path (spans in %s)",
		pct["decode"], pct["apply"], pct["respond"],
		100*perEvent(stats, pairs[0].layer)/sum, 100*perEvent(stats, pairs[1].layer)/sum, 100*perEvent(stats, pairs[2].layer)/sum, spanFile)
	return nil
}
