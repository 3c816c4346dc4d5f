package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Re-registration returns the same handle.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registering a counter returned a different handle")
	}
}

func TestRegisterTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "help")
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	counts, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if math.Abs(sum-106) > 1e-9 {
		t.Fatalf("sum = %v, want 106", sum)
	}
	// le semantics: v == bound lands in that bucket.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
}

// TestHistogramConcurrency hammers one histogram from many goroutines;
// under -race this doubles as the data-race check, and the final
// count/sum must be exact because every update is atomic.
func TestHistogramConcurrency(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Observe(rng.Float64() * 0.1)
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	_, count, sum := h.snapshot()
	if count != goroutines*perG {
		t.Fatalf("snapshot count = %d, want %d", count, goroutines*perG)
	}
	if sum <= 0 || sum > goroutines*perG*0.1 {
		t.Fatalf("snapshot sum = %v out of range", sum)
	}
}

// TestQuantileErrorBounds checks estimated quantiles against a sorted
// reference sample. LatencyBuckets grow 1.25x per bucket, so the
// estimate must land within 25% relative error of the true value.
func TestQuantileErrorBounds(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [200µs, 2s]: spans many buckets.
		vals[i] = 200e-6 * math.Pow(1e4, rng.Float64())
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		truth := vals[int(q*float64(n-1))]
		est := h.Quantile(q)
		relErr := math.Abs(est-truth) / truth
		if relErr > 0.25 {
			t.Errorf("q=%v: est %v vs true %v, rel err %.3f > 0.25", q, est, truth, relErr)
		}
	}
	if got := (*Histogram)(nil).Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}
	if got := newHistogram(LatencyBuckets).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

// TestWritePrometheusDeterministic renders the same registry twice and
// requires byte-identical output, and spot-checks the text format.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second family").Add(3)
	r.Gauge("a_gauge", "first family").Set(1.5)
	hv := r.HistogramVec("c_seconds", "histogram family", []float64{1, 2}, "stage")
	hv.With("learn").Observe(0.5)
	hv.With("infer").Observe(3)
	cv := r.CounterVec("d_total", "labeled counter", "endpoint", "class")
	cv.With("GET /metrics", "2xx").Inc()

	var b1, b2 bytes.Buffer
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two scrapes differ:\n%s\n----\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge 1.5\n",
		"# TYPE b_total counter\nb_total 3\n",
		`c_seconds_bucket{stage="infer",le="+Inf"} 1`,
		`c_seconds_bucket{stage="learn",le="1"} 1`,
		`c_seconds_sum{stage="learn"} 0.5`,
		`c_seconds_count{stage="learn"} 1`,
		`d_total{endpoint="GET /metrics",class="2xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Families render in sorted name order.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Error("families not sorted by name")
	}
}

func TestScrapeHookRunsBeforeRender(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sampled", "set by hook")
	r.OnScrape(func() { g.Set(42) })
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sampled 42\n") {
		t.Fatalf("hook did not run before render:\n%s", b.String())
	}
}

// TestVecCardinalityCap fills a vec past maxVecChildren and checks the
// overflow collapses into the "other" child.
func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("tenants_total", "per tenant", "tenant")
	for i := 0; i < maxVecChildren+10; i++ {
		cv.With(string(rune('a'+i%26)) + string(rune('0'+i/26))).Inc()
	}
	cv.mu.RLock()
	n := len(cv.children)
	other := cv.children[overflowLabel]
	cv.mu.RUnlock()
	if n > maxVecChildren+1 {
		t.Fatalf("vec grew to %d children, cap is %d+overflow", n, maxVecChildren)
	}
	if other == nil || other.Value() == 0 {
		t.Fatal("overflow observations did not land in the \"other\" child")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("e_total", "escapes", "v").With("a\"b\\c\nd").Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `e_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

// TestNilRegistryNoops drives the full API surface through nil
// receivers: nothing may panic, and reads return zero values.
func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(2)
	g := r.Gauge("y", "")
	g.Set(1)
	g.Add(1)
	h := r.Histogram("z", "", LatencyBuckets)
	h.Observe(1)
	r.CounterVec("cv", "", "l").With("a").Inc()
	r.GaugeVec("gv", "", "l").With("a").Set(1)
	r.GaugeVec("gv", "", "l").Reset()
	r.HistogramVec("hv", "", LatencyBuckets, "l").With("a").Observe(1)
	r.OnScrape(func() {})
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics returned nonzero values")
	}
}

// TestNoopPathZeroAllocs pins the disabled path at zero allocations:
// with telemetry off, every handle is nil and the per-sweep hot loop
// must not allocate, preserving the pipeline's zero-alloc warmed-sweep
// guarantee.
func TestNoopPathZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	h := r.Histogram("z", "", LatencyBuckets)
	hv := r.HistogramVec("hv", "", LatencyBuckets, "l")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(0.5)
		hv.With("a").Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("no-op path allocates %v per run, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(LatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}

func BenchmarkHistogramObserveNoop(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}
