// Command perfbench is the benchmark of the reactived speculation-control
// service: three daemon workloads measured end to end through the public
// client, and a per-layer ladder measured in process from the same inputs.
//
//	bash perfbench/run.sh --workload stream-hop --seed 1 --seconds 6 --trace 0
//
// run.sh builds the daemon, the span analyzer and this driver from the
// checkout, then runs the driver. The driver generates every input from
// --seed before any clock starts, prints one "metric" line per measurement
// (with unit and sample count) and, as its last line, one JSON result whose
// metrics are exactly the end_to_end (--trace 0) or per_layer (--trace 1)
// names of BENCHMARK.json. See README.md for the workloads and predictions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"stream-hop", "post-durable", "decide-mix"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root: BENCHMARK.json and the sources
	bin      string // directory holding the built binaries and run state
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 6, "length of the timed run in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end run against the daemon; 1: traced per-layer ladder in process")
	fs.StringVar(&o.root, "root", ".", "checkout root holding BENCHMARK.json")
	fs.StringVar(&o.bin, "bin", ".bench_build", "directory with the built reactived and reactivespec binaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Run state lives under the build directory, addressed relative to it:
	// unix socket paths must stay short wherever the checkout is.
	if err := os.Chdir(o.bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Children are killed on every exit path; a signal to the driver tears
	// them down before it exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()
	defer killAll()

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	var total result
	total.Correct = true
	total.Metrics = map[string]metric{}
	for _, name := range names {
		res, err := runOne(o, name, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if len(names) == 1 {
			total = res
			break
		}
		fmt.Println(mustJSON(res))
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	fmt.Println(mustJSON(total))
	return 0
}

// runOne runs one workload, end to end or traced, and selects the metrics
// BENCHMARK.json declares for that mode.
func runOne(o options, name string, spec benchSpec) (result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == name
	}
	if !known {
		return result{}, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
	}
	rep := newReport(name)
	rep.stamp(o)
	in, err := buildInputs(name, o.seed, o.seconds, o.trace)
	if err != nil {
		return result{}, err
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
		err = runLadder(o, in, rep)
	} else {
		err = runEndToEnd(o, in, rep)
	}
	if err != nil {
		return result{}, err
	}
	return rep.result(want)
}

// benchSpec is the part of BENCHMARK.json the driver reads: the metric names
// and units it must emit.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload's measurements and correctness tallies and
// prints each measurement as it is made.
type report struct {
	mu        sync.Mutex // fail is called from the lanes' goroutines
	workload  string
	values    map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]metric{}}
}

// add records a measurement and prints it with its unit and sample count
// (n = 0 for a derived or exact value).
func (r *report) add(name string, value float64, unit string, n int) {
	r.values[name] = metric{Value: value, Unit: unit}
	fmt.Printf("metric %-12s %-52s %14.6g %-6s n=%d\n", r.workload, name, value, unit, n)
}

// note prints an informational line that is not a metric.
func (r *report) note(format string, args ...any) {
	fmt.Printf("note   %-12s %s\n", r.workload, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and keeps its first diagnostics.
func (r *report) fail(n int64, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if len(r.problems) < 8 {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, msg)
	}
}

func (r *report) stamp(o options) {
	h := hostStamp(o)
	h["workload"] = r.workload
	h["trace"] = o.trace
	fmt.Println("host", mustJSON(h))
}

func (r *report) result(want []specMetric) (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	var missing []string
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			return res, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
