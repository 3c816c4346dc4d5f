// Package gibbs implements the approximate-inference engine HoloClean runs
// over its grounded factor graph (Section 2.2): single-site Gibbs sampling
// with burn-in, marginal estimation, and MAP extraction.
//
// Run is one kernel with one RNG discipline: every query variable draws
// from its own splitmix64 stream, seeded by the variable's identity, so a
// variable's draws never depend on which goroutine makes them or in what
// order the other variables are visited. Graphs with query-side
// correlations are swept class by class (Config.Colors); the relaxed
// models of Section 5.2 have only independent query variables, where
// Gibbs mixes in O(n log n) steps [21, 36] and each variable's chain runs
// start to finish on its own. The sampler also exposes that regime's
// closed form (Exact), which tests use to validate the sampler and callers
// can use as a fast path.
package gibbs

import (
	"math"
	"runtime"
	"sync"

	"holoclean/internal/factor"
)

// Config controls the sampler.
type Config struct {
	// BurnIn is the number of full sweeps discarded before collecting
	// marginal statistics.
	BurnIn int
	// Samples is the number of sweeps whose states are accumulated into
	// the marginal estimates.
	Samples int
	// Seed makes runs reproducible: with VarSeed nil, variable v draws
	// from the stream seeded Seed + v·1_000_003.
	Seed int64
	// Parallel spreads the chains of an independent graph (no n-ary
	// factor on a query variable, the Section 5.2 regime) across
	// GOMAXPROCS goroutines, the way DimmWitted [41] parallelizes
	// inference. It changes wall-clock only, never a bit of the result:
	// each chain draws from its own stream against a conditional fixed by
	// the evidence. Correlated graphs ignore it.
	Parallel bool
	// VarSeed, when non-nil, supplies the full per-variable stream seed
	// (len == number of variables). The sharded pipeline uses it to seed
	// each variable by its global identity rather than its index in the
	// shard-local graph, so per-shard inference reproduces monolithic
	// inference bit for bit.
	VarSeed []int64
	// Colors, when non-nil, is the sweep schedule of a graph with
	// query-side correlations: each entry is one color class — query
	// variables that share no n-ary factor — and every sweep samples the
	// classes in order, each class across IntraWorkers goroutines. Within
	// a class the conditionals are mutually independent given the other
	// classes, so the parallel class sweep is a valid single-site Gibbs
	// schedule, and per-variable streams make it bit-identical for every
	// IntraWorkers value, including 1. Colors must cover exactly the
	// query variables of the graph. Nil sweeps the query variables one at
	// a time in index order. Independent graphs ignore it.
	Colors [][]int32
	// IntraWorkers bounds the goroutines sampling one color class.
	// Values <= 1 sweep sequentially; like Parallel it changes
	// wall-clock only.
	IntraWorkers int
	// Scratch, when non-nil, supplies every working buffer of the run —
	// marginal-count arenas, score buffers, RNG state — so a warmed
	// scratch makes steady-state sweeps allocation-free. The returned
	// Marginals borrow the scratch's arenas and stay valid only until the
	// scratch's next Run; callers must extract what they need before
	// reusing or releasing it. Nil allocates fresh buffers. Scratch or
	// not, results are bit-identical.
	Scratch *Scratch
}

// Scratch is the reusable working memory of one sampler run: a flat
// marginal-count arena with per-variable views, the per-variable stream
// states, and one score buffer per goroutine. The sharded pipeline pools
// scratches across its worker pool and across Session recleans via
// AcquireScratch/ReleaseScratch, so steady-state serving recleans
// approach zero sampler allocations.
type Scratch struct {
	counts []float64   // flat arena backing all marginal counts
	p      [][]float64 // per-variable views into counts
	query  []int32
	state  []uint64    // per-variable splitmix64 states
	bufs   [][]float64 // one score buffer per goroutine
	m      factor.Marginals
}

// marginals resizes the count arena for g (one float64 per variable per
// domain value), zeroes it, and rebuilds the per-variable views.
func (s *Scratch) marginals(g *factor.Graph) [][]float64 {
	total := 0
	for i := range g.Vars {
		total += len(g.Vars[i].Domain)
	}
	s.counts = growF(s.counts, total)
	clear(s.counts)
	if cap(s.p) >= len(g.Vars) {
		s.p = s.p[:len(g.Vars)]
	} else {
		s.p = make([][]float64, len(g.Vars))
	}
	off := 0
	for i := range g.Vars {
		d := len(g.Vars[i].Domain)
		s.p[i] = s.counts[off : off+d : off+d]
		off += d
	}
	return s.p
}

// growF returns b resized to n, reusing capacity when possible.
func growF(b []float64, n int) []float64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float64, n)
}

// growU64 is growF for uint64 slices.
func growU64(b []uint64, n int) []uint64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint64, n)
}

// scratchPool backs AcquireScratch/ReleaseScratch. A process-wide pool
// (rather than per-runner) means the worker pools of concurrent cleaning
// jobs and successive Session recleans all share warmed arenas.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch returns a pooled scratch, possibly warm from an earlier
// run.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns a scratch to the pool. The caller must be done
// with any Marginals borrowed from it.
func ReleaseScratch(s *Scratch) { scratchPool.Put(s) }

// DefaultConfig mirrors the modest sampling budgets DeepDive-style systems
// use once mixing is fast (Section 5.2).
func DefaultConfig() Config { return Config{BurnIn: 10, Samples: 50, Seed: 1} }

// Run performs Gibbs sampling over the query variables of g and returns
// estimated marginals. Evidence variables stay clamped at their observed
// values and have point-mass marginals.
//
// Each query variable's stream is seeded by its identity and advanced
// once for its initial state (when it has no observed value) and once
// per sweep, so its draw sequence is a function of its seed and the
// conditionals it sees. On an independent graph those conditionals never
// change, so Run interchanges the loops and runs each variable's whole
// chain at once (var-major): the same bits as sweeping, with one
// LocalScores per variable instead of one per sweep.
func Run(g *factor.Graph, cfg Config) *factor.Marginals {
	g.Freeze()
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	query := sc.query[:0]
	maxDom := 1
	for i := range g.Vars {
		v := &g.Vars[i]
		if v.Evidence {
			v.Assign = v.Obs
			continue
		}
		query = append(query, int32(i))
		maxDom = max(maxDom, len(v.Domain))
	}
	sc.query = query
	sc.state = growU64(sc.state, len(g.Vars))
	s := sampler{g: g, state: sc.state, counts: sc.marginals(g), burnIn: cfg.BurnIn, samples: cfg.Samples}
	// Seed every variable's stream, then draw initial assignments from
	// the streams so initialization is as schedule-independent as the
	// sweeps. Start at the observed value when it survived pruning.
	for _, v := range query {
		seed := cfg.Seed + int64(v)*1_000_003
		if cfg.VarSeed != nil {
			seed = cfg.VarSeed[v]
		}
		s.state[v] = uint64(seed)
		vr := &g.Vars[v]
		if vr.Obs >= 0 {
			vr.Assign = vr.Obs
		} else {
			vr.Assign = int32(splitIntn(&s.state[v], len(vr.Domain)))
		}
	}

	independent := !g.HasNaryOnQuery()
	workers := 1
	switch {
	case independent && cfg.Parallel:
		workers = runtime.GOMAXPROCS(0)
	case !independent && cfg.Colors != nil:
		workers = cfg.IntraWorkers
	}
	workers = max(1, min(workers, len(query)))
	if cap(sc.bufs) >= workers {
		sc.bufs = sc.bufs[:workers]
	} else {
		sc.bufs = make([][]float64, workers)
	}
	for w := range sc.bufs {
		sc.bufs[w] = growF(sc.bufs[w], maxDom)
	}

	switch {
	case independent && workers > 1:
		inParallel(query, sc.bufs, s.chains)
	case independent:
		s.chains(query, sc.bufs[0])
	default:
		classes := cfg.Colors
		if classes == nil {
			classes = [][]int32{query} // one class, swept by one goroutine
		}
		for sweep := 0; sweep < cfg.BurnIn+cfg.Samples; sweep++ {
			collect := sweep >= cfg.BurnIn
			for _, class := range classes {
				if workers <= 1 || len(class) < 2*workers {
					s.sweep(class, sc.bufs[0], collect)
					continue
				}
				inParallel(class, sc.bufs, func(part []int32, buf []float64) { s.sweep(part, buf, collect) })
			}
		}
	}

	m := &sc.m
	m.P = s.counts
	n := float64(cfg.Samples)
	for _, v := range query {
		for d := range m.P[v] {
			m.P[v][d] /= n
		}
	}
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			m.P[i][g.Vars[i].Obs] = 1
		}
	}
	return m
}

// sampler is what the draw loops of one run share: the graph, the
// per-variable streams, and the marginal-count rows. Count rows and
// stream states of distinct variables never alias, so goroutines drawing
// for disjoint variable sets are race-free.
type sampler struct {
	g               *factor.Graph
	state           []uint64
	counts          [][]float64
	burnIn, samples int
}

// sweep draws each of vars once, in order, into the caller-owned score
// buffer; collect accumulates the draws into the marginal counts.
func (s sampler) sweep(vars []int32, buf []float64, collect bool) {
	for _, v := range vars {
		vr := &s.g.Vars[v]
		scores := buf[:len(vr.Domain)]
		s.g.LocalScores(v, scores)
		d := sampleSoftmax(&s.state[v], scores)
		vr.Assign = int32(d)
		if collect {
			s.counts[v][d]++
		}
	}
}

// chains runs the whole chain of each of vars (var-major): one
// LocalScores, then burnIn+samples draws against the fixed conditional.
// Only valid when no n-ary factor touches a query variable.
func (s sampler) chains(vars []int32, buf []float64) {
	for _, v := range vars {
		vr := &s.g.Vars[v]
		cum := buf[:len(vr.Domain)]
		s.g.LocalScores(v, cum)
		z := cumulate(cum)
		d := int(vr.Assign)
		for k := 0; k < s.burnIn+s.samples; k++ {
			d = draw(&s.state[v], cum, z)
			if k >= s.burnIn {
				s.counts[v][d]++
			}
		}
		vr.Assign = int32(d)
	}
}

// inParallel splits vars into len(bufs) contiguous chunks and hands each
// to fn on its own goroutine with its own score buffer. It lives outside
// Run so the WaitGroup and goroutine closures never force heap
// allocations onto the sequential path, which the zero-alloc
// warmed-sweep guarantee covers.
func inParallel(vars []int32, bufs [][]float64, fn func(part []int32, buf []float64)) {
	var wg sync.WaitGroup
	chunk := (len(vars) + len(bufs) - 1) / len(bufs)
	for w, buf := range bufs {
		lo := w * chunk
		hi := min(lo+chunk, len(vars))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(vars[lo:hi], buf)
		}()
	}
	wg.Wait()
}

// splitmix64 advances a per-variable PRNG state and returns the next
// 64-bit output (Steele, Lea & Flood's SplitMix64). Eight bytes of state
// per variable is what makes per-variable streams affordable at 10⁶
// variables, and the stream depends only on the variable's own seed and
// draw count, never on which goroutine executes the draw — the whole
// determinism argument of the kernel.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitFloat draws a uniform float64 in [0, 1) from the state.
func splitFloat(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// splitIntn draws a uniform-enough int in [0, n) from the state. Domain
// sizes are tiny relative to 2^64, so modulo bias is negligible.
func splitIntn(state *uint64, n int) int {
	return int(splitmix64(state) % uint64(n))
}

// sampleSoftmax draws an index proportionally to exp(scores) from the
// stream, overwriting scores with their cumulative weights.
func sampleSoftmax(state *uint64, scores []float64) int {
	return draw(state, scores, cumulate(scores))
}

// cumulate overwrites scores with the running sums of exp(score - max)
// and returns the total. When every score is -Inf the softmax is
// degenerate (-Inf - -Inf is NaN): scores are left as they are and the
// total is 0, which draw reads as "uniform".
func cumulate(scores []float64) float64 {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		return 0
	}
	var acc float64
	for i, s := range scores {
		acc += math.Exp(s - maxS)
		scores[i] = acc
	}
	return acc
}

// draw picks an index from the cumulative weights cum with total z (as
// returned by cumulate), or uniformly when z is 0.
func draw(state *uint64, cum []float64, z float64) int {
	if z == 0 {
		return splitIntn(state, len(cum))
	}
	u := splitFloat(state) * z
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// Exact computes marginals in closed form for graphs whose query variables
// are independent given the evidence (no n-ary factor touches a query
// variable): each variable's posterior is the softmax of its local scores.
// It panics if the graph has query-side correlations.
func Exact(g *factor.Graph) *factor.Marginals {
	g.Freeze()
	if g.HasNaryOnQuery() {
		panic("gibbs: Exact requires an independent-variable graph (Section 5.2 relaxation)")
	}
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			g.Vars[i].Assign = g.Vars[i].Obs
		}
	}
	m := &factor.Marginals{P: make([][]float64, len(g.Vars))}
	for i := range g.Vars {
		v := &g.Vars[i]
		m.P[i] = make([]float64, len(v.Domain))
		if v.Evidence {
			m.P[i][v.Obs] = 1
			continue
		}
		g.LocalScores(int32(i), m.P[i])
		softmaxInPlace(m.P[i])
	}
	return m
}

// softmaxInPlace turns scores into probabilities. An all--Inf input (no
// candidate is feasible) yields the uniform distribution rather than NaN.
func softmaxInPlace(scores []float64) {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		for i := range scores {
			scores[i] = 1 / float64(len(scores))
		}
		return
	}
	var z float64
	for i, s := range scores {
		scores[i] = math.Exp(s - maxS)
		z += scores[i]
	}
	for i := range scores {
		scores[i] /= z
	}
}
