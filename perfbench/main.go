// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time, checks that the outputs are correct,
// and prints its metrics; the last line of standard output is a single
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload clean-hospital --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it runs the same workload again with spans
// recorded around the calls into each layer package and reports the
// per-layer metrics, each layer's self time, the coverage of the layer
// times over the end-to-end time, and the tracing overhead. No tracing is
// added inside the program: every span is opened and closed in this
// package. METRICS.md lists which end-to-end metric each layer metric is
// expected to move, and on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs. run measures it for the given
// duration and fills in the outcome; it returns an error only when the
// run could not be carried out at all (set-up failed), in which case no
// result line is printed.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{
		name: "clean-hospital",
		why:  "Clean back to back on hospital-4000: grounding and featurization dominate, compile.Prepare (detect, stats, pruning) is next, Gibbs is small",
		run:  runCleanHospital,
	},
	{
		name: "clean-skew",
		why:  "Clean back to back on skew-2000 with one conflict component holding 90% of the tuples: chromatic Gibbs dominates, grounding is small",
		run:  runCleanSkew,
	},
	{
		name: "stream-served",
		why:  "served delta stream over a durable replicated leader: incremental Reclean, HTTP/JSON, WAL fsync, checkpoints and WAL shipping, with reads on tenants mid-reclean",
		run:  runStreamServed,
	},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// workdir holds the benchmark's scratch files (store directories).
	workdir string
}

// outcome is a finished run: op counts, the metrics, check failures and
// report lines for humans.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	problems  []string
	report    []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed output check; the run reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files, inside the checkout")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if out.attempted > 0 && out.failed > 0 {
		out.fail("%d of %d ops failed", out.failed, out.attempted)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	// Keep the result line to the metrics the mode promises, each in the
	// unit BENCHMARK.json declares.
	keep := make(map[string]metric, len(want))
	for _, spec := range want {
		m, ok := out.metrics[spec.name]
		if !ok || m.Unit != spec.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s in %s\n", w.name, spec.name, spec.unit)
			os.Exit(1)
		}
		keep[spec.name] = m
	}

	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("provenance: %s\n", provenance(cfg))
	for _, line := range out.report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(keep))
	for m := range keep {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		fmt.Printf("  %-34s %14.6g %s\n", m, keep[m].Value, keep[m].Unit)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, keep})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// provenance stamps a result with what it was measured on.
func provenance(cfg runConfig) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s store_flush=%q seed=%d seconds=%g trace=%t at=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, storeFlushPolicy,
		cfg.seed, cfg.seconds, cfg.trace, time.Now().UTC().Format(time.RFC3339))
}
