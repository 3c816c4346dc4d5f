package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the metrics a --trace 0 run reports. Every workload
// reports every one of them, so each is defined for batch cleans and for
// the served stream alike (see METRICS.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"tuples_per_s", "tuples/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"f1", "ratio", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer lists the metrics a --trace 1 run reports, in BENCHMARK.json's
// order. METRICS.md names the end-to-end metric each is expected to
// move, and on which workload. A layer a workload does not call reports
// 0 on that workload.
var perLayer = []metricSpec{
	{"errordetect.run_s", "s", "lower"},
	{"errordetect.noisy_cells", "count", "lower"},
	{"stats.collect_s", "s", "lower"},
	{"pruning.compute_s", "s", "lower"},
	{"pruning.candidates", "count", "lower"},
	{"pruning.candidates_per_cell", "count", "lower"},
	{"compile.prepare_s", "s", "lower"},
	{"compile.prepare_self_s", "s", "lower"},
	{"ddlog.ground_s", "s", "lower"},
	{"ddlog.factors", "count", "lower"},
	{"ddlog.variables", "count", "lower"},
	{"learn.learn_s", "s", "lower"},
	{"partition.color_s", "s", "lower"},
	{"partition.colors", "count", "lower"},
	{"gibbs.infer_s", "s", "lower"},
	{"gibbs.var_sweeps_per_s", "1/s", "higher"},
	{"holoclean.shards", "count", "lower"},
	{"holoclean.alloc_objects", "count", "lower"},
	{"session.upsert_ms", "ms", "lower"},
	{"session.reclean_ms", "ms", "lower"},
	{"violation.detect_delta_ms", "ms", "lower"},
	{"stats.apply_ms", "ms", "lower"},
	{"holoclean.shards_reused_frac", "ratio", "higher"},
	{"serve.delta_handler_ms", "ms", "lower"},
	{"serve.read_handler_ms", "ms", "lower"},
	{"serve.read_p99_ms", "ms", "lower"},
	{"serve.client_ms", "ms", "lower"},
	{"store.append_ms", "ms", "lower"},
	{"store.checkpoint_ms", "ms", "lower"},
	{"store.wal_bytes_per_op", "B/op", "lower"},
	{"cluster.catchup_ms", "ms", "lower"},
	{"cluster.bytes_shipped_per_op", "B/op", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
}

// zeroLayers sets every per-layer metric the run did not measure to 0:
// the workload never called that layer.
func (o *outcome) zeroLayers() {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified), or 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocBytes reads the process's cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 5

// timeSetup runs build setupRepeats times, keeps the last result, and
// reports the median duration.
func timeSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var durs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
		last = v
	}
	return last, median(durs), nil
}

// endToEndOps fills the latency and throughput metrics shared by every
// workload from per-op durations: opTimes are the successful ops' wall
// times, wall the timed phase's duration, tuples the relation size each
// op brings up to date.
func (o *outcome) endToEndOps(opTimes []time.Duration, wall time.Duration, tuples int, allocBytes uint64) {
	lat := make([]float64, len(opTimes))
	var sum time.Duration
	for i, d := range opTimes {
		lat[i] = ms(d)
		sum += d
	}
	n := float64(len(opTimes))
	o.set("op_p50_ms", quantile(lat, 0.5), "ms")
	o.set("op_p90_ms", quantile(lat, 0.9), "ms")
	o.set("tuples_per_s", float64(tuples)*n/sum.Seconds(), "tuples/s")
	o.set("ops_per_s", n/wall.Seconds(), "1/s")
	o.set("alloc_mb_per_op", float64(allocBytes)/n/(1<<20), "MB")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.set("ok_frac", float64(o.attempted-o.failed)/float64(o.attempted), "ratio")
	beyond := int(math.Floor(n * 0.1))
	o.printf("timed ops: %d ok in %.2fs, %d samples beyond op_p90_ms; %d ops attempted in all, %d failed",
		len(opTimes), wall.Seconds(), beyond, o.attempted, o.failed)
	o.printf("op latency ms: p50 %.2f p90 %.2f p95 %.2f p98 %.2f p99 %.2f max %.2f",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.98), quantile(lat, 0.99), quantile(lat, 1))
}
