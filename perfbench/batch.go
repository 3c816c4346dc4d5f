package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"holoclean"
	"holoclean/internal/compile"
	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/errordetect"
	"holoclean/internal/factor"
	"holoclean/internal/gibbs"
	"holoclean/internal/harness"
	"holoclean/internal/learn"
	"holoclean/internal/metrics"
	"holoclean/internal/partition"
	"holoclean/internal/pruning"
	"holoclean/internal/stats"
)

// batchSpec is a batch-clean workload: Clean back to back, round-robin
// over a few datasets generated from the seed, so that a run's figures
// average over several inputs rather than hinge on one draw.
type batchSpec struct {
	gen      func(seed int64) *datagen.Generated
	variants int
	opts     holoclean.Options
	// f1Floor is the lowest acceptable repair F1 against the
	// generator's truth.
	f1Floor float64
}

func runCleanHospital(cfg runConfig) (*outcome, error) {
	opts := harness.HoloCleanOptions("hospital")
	opts.Workers = runtime.NumCPU()
	return runBatch(cfg, batchSpec{
		gen: func(seed int64) *datagen.Generated {
			return datagen.Hospital(datagen.Config{Tuples: 4000, Seed: seed})
		},
		variants: 4,
		opts:     opts,
		f1Floor:  0.80,
	})
}

func runCleanSkew(cfg runConfig) (*outcome, error) {
	opts := holoclean.DefaultOptions()
	opts.Variant = holoclean.VariantDCFactors
	opts.Workers = runtime.NumCPU()
	opts.IntraWorkers = runtime.NumCPU()
	return runBatch(cfg, batchSpec{
		gen: func(seed int64) *datagen.Generated {
			return datagen.Skew(datagen.SkewConfig{Tuples: 2000, Seed: seed, HotFrac: 0.9})
		},
		variants: 1,
		opts:     opts,
		f1Floor:  0.97,
	})
}

// batchInput is one dataset of a batch run and the digest of its
// repaired output, set by its first Clean.
type batchInput struct {
	g      *datagen.Generated
	digest string
	eval   metrics.Eval
}

func runBatch(cfg runConfig, b batchSpec) (*outcome, error) {
	cl := holoclean.New(b.opts)
	// Set-up is data generation. No Clean runs before the timed phase:
	// a batch user pays the first, cold Clean too.
	inputs, setupS, err := timeSetup(func() ([]*batchInput, error) {
		var in []*batchInput
		for v := 0; v < b.variants; v++ {
			in = append(in, &batchInput{g: b.gen(cfg.seed*int64(b.variants) + int64(v) + 1)})
		}
		return in, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.set("setup_s", setupS, "s")

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		times    []time.Duration
		allocs   uint64
		shards   float64
		objects  float64
		replays  []time.Duration
		mismatch bool
	)
	start := time.Now()
	for op := 0; time.Since(start).Seconds() < cfg.seconds; op++ {
		in := inputs[op%len(inputs)]
		out.attempted++
		a0 := heapAllocBytes()
		t0 := time.Now()
		res, err := cl.Clean(in.g.Dirty, in.g.Constraints)
		d := time.Since(t0)
		allocs += heapAllocBytes() - a0
		if err != nil {
			out.failed++
			out.printf("clean failed: %v", err)
			continue
		}
		times = append(times, d)
		shards += float64(res.Stats.Shards)
		objects += float64(res.Stats.AllocObjects)
		switch dg := digest(res.Repaired); {
		case in.digest == "":
			in.digest = dg
			if in.eval, err = metrics.Evaluate(in.g.Dirty, res.Repaired, in.g.Truth); err != nil {
				return nil, err
			}
		case dg != in.digest && !mismatch:
			mismatch = true
			out.fail("clean %d produced a different repaired dataset than the first clean of its input", len(times))
		}
		if tr != nil {
			r0 := time.Now()
			if err := replay(tr, in.g, b.opts); err != nil {
				return nil, fmt.Errorf("traced replay: %w", err)
			}
			replays = append(replays, time.Since(r0))
		}
	}
	wall := time.Since(start)
	if len(times) == 0 {
		return nil, fmt.Errorf("no clean succeeded")
	}
	out.endToEndOps(times, wall, inputs[0].g.Dirty.NumTuples(), allocs)
	var opMS strings.Builder
	for _, d := range times {
		fmt.Fprintf(&opMS, " %.0f", ms(d))
	}
	out.printf("clean ms, in order:%s", opMS.String())
	var f1 float64
	scored := 0
	for _, in := range inputs {
		if in.digest == "" {
			continue
		}
		scored++
		f1 += in.eval.F1
		out.printf("input: %s, %d tuples, %d injected errors; %s", in.g.Name, in.g.Dirty.NumTuples(), in.g.InjectedErrors, in.eval)
		if in.eval.F1 < b.f1Floor {
			out.fail("f1 %.4f is below the floor %.2f", in.eval.F1, b.f1Floor)
		}
	}
	out.set("f1", f1/float64(scored), "ratio")
	if tr == nil {
		return out, nil
	}

	// Per-layer metrics: means per traced op.
	n := float64(len(replays))
	sum := tr.summarize()
	sec := func(name string) float64 {
		if lt := sum[name]; lt != nil {
			return lt.total.Seconds() / n
		}
		return 0
	}
	self := func(name string) float64 {
		if lt := sum[name]; lt != nil {
			return lt.self.Seconds() / n
		}
		return 0
	}
	out.set("errordetect.run_s", sec("errordetect.run"), "s")
	out.set("errordetect.noisy_cells", tr.counts["errordetect.noisy_cells"]/n, "count")
	out.set("stats.collect_s", sec("stats.collect"), "s")
	out.set("pruning.compute_s", sec("pruning.compute"), "s")
	out.set("pruning.candidates", tr.counts["pruning.candidates"]/n, "count")
	if cells := tr.counts["pruning.cells"]; cells > 0 {
		out.set("pruning.candidates_per_cell", tr.counts["pruning.candidates"]/cells, "count")
	}
	// Prepare calls pruning.Compute internally, where no span reaches;
	// the pruning span times the same call on Prepare's own inputs right
	// after Prepare returns. Prepare's self time is its span minus
	// detection and statistics (its child spans) minus that pruning time.
	prepareSelf := self("compile.prepare") - sec("pruning.compute")
	out.set("compile.prepare_s", sec("compile.prepare"), "s")
	out.set("compile.prepare_self_s", prepareSelf, "s")
	out.set("ddlog.ground_s", sec("ddlog.ground"), "s")
	out.set("ddlog.factors", tr.counts["ddlog.factors"]/n, "count")
	out.set("ddlog.variables", tr.counts["ddlog.variables"]/n, "count")
	out.set("learn.learn_s", sec("learn.learn"), "s")
	out.set("partition.color_s", sec("partition.color"), "s")
	out.set("partition.colors", tr.counts["partition.colors"]/n, "count")
	out.set("gibbs.infer_s", sec("gibbs.infer"), "s")
	if t := sec("gibbs.infer"); t > 0 {
		out.set("gibbs.var_sweeps_per_s", tr.counts["gibbs.var_sweeps"]/n/t, "1/s")
	}
	out.set("holoclean.shards", shards/float64(len(times)), "count")
	out.set("holoclean.alloc_objects", objects/float64(len(times)), "count")

	// The pruning span lies outside the prepare span, so each layer's
	// self time counts once: pruning inside Prepare is pruning.compute,
	// the rest of Prepare is prepareSelf.
	layerSelf := prepareSelf
	for _, name := range []string{"errordetect.run", "stats.collect", "pruning.compute",
		"ddlog.ground", "learn.learn", "partition.color", "gibbs.infer"} {
		layerSelf += self(name)
	}
	var cleanSum, replaySum time.Duration
	for i := range replays {
		cleanSum += times[i]
		replaySum += replays[i]
	}
	untraced := cleanSum.Seconds() / n
	out.set("trace.coverage", layerSelf/untraced, "ratio")
	out.set("trace.overhead_ms", (replaySum.Seconds()/n-untraced)*1000, "ms")
	out.printf("traced replay: %d ops; untraced Clean %.1f ms/op, traced replay %.1f ms/op, layer self times sum to %.1f ms/op (coverage %.3f)",
		len(replays), untraced*1000, replaySum.Seconds()/n*1000, layerSelf*1000, layerSelf/untraced)
	out.report = append(out.report, selfReport(sum, len(replays))...)
	out.zeroLayers()
	return out, nil
}

// replay runs the pipeline of one Clean monolithically through the
// layer packages' public calls, with a span around each call: detection,
// statistics and Prepare (compile), grounding of the whole program,
// weight learning, coloring and Gibbs sampling. Clean runs the same
// stages sharded over conflict components; the replay exists to time
// each layer on its own.
func replay(tr *tracer, g *datagen.Generated, o holoclean.Options) error {
	ds := g.Dirty
	root := tr.start("replay", -1)
	defer tr.end(root)

	prep := tr.start("compile.prepare", root)
	viol := &errordetect.Violations{Constraints: g.Constraints}
	detectors := []errordetect.Detector{viol}
	if o.OutlierDetection {
		detectors = append(detectors, &errordetect.Outliers{}, &errordetect.CondOutliers{})
	}
	var det *errordetect.Result
	var err error
	tr.do("errordetect.run", prep, func() { det, err = errordetect.Run(ds, detectors...) })
	if err != nil {
		tr.end(prep)
		return err
	}
	tr.add("errordetect.noisy_cells", float64(det.NumNoisy()))

	var st, masked *stats.Stats
	tr.do("stats.collect", prep, func() {
		st = stats.Collect(ds)
		if !o.DisableCooccurFeatures {
			masked = stats.CollectFiltered(ds, func(t, a int) bool {
				return det.IsNoisy(dataset.Cell{Tuple: t, Attr: a})
			})
		}
	})

	copts := compile.Options{
		Tau:                    o.Tau,
		MaxCandidates:          o.MaxCandidates,
		FullDomain:             o.FullDomain,
		Variant:                o.Variant,
		MinimalityWeight:       o.MinimalityWeight,
		DCWeight:               o.DCWeight,
		MaxEvidence:            o.EvidenceSample,
		Seed:                   o.Seed,
		Dictionaries:           o.Dictionaries,
		MatchDeps:              o.MatchDependencies,
		DictionaryPrior:        o.DictionaryPrior,
		RelaxedDCPrior:         o.RelaxedDCPrior,
		DisableCooccurFeatures: o.DisableCooccurFeatures,
		DisableSourceFeatures:  o.DisableSourceFeatures,
		MaxScanCounterparts:    o.MaxScanCounterparts,
		Detection:              det,
		Hypergraph:             viol.LastHypergraph,
		Stats:                  st,
		MaskedStats:            masked,
		Interner:               factor.NewKeyInterner(),
	}
	p, err := compile.Prepare(ds, g.Constraints, copts)
	tr.end(prep)
	if err != nil {
		return err
	}
	tau := o.Tau
	if tau == 0 && !o.FullDomain {
		tau = 0.5 // Prepare's default
	}
	var doms *pruning.Domains
	tr.do("pruning.compute", root, func() {
		doms = pruning.Compute(ds, p.Stats, det.Noisy, pruning.Config{
			Tau: tau, MaxCandidates: o.MaxCandidates, FullDomain: o.FullDomain,
		})
	})
	tr.add("pruning.candidates", float64(doms.TotalCandidates()))
	tr.add("pruning.cells", float64(len(doms.Cells)))

	db := *p.DB
	db.Interner = copts.Interner
	var gr *ddlog.Grounded
	tr.do("ddlog.ground", root, func() {
		gr, err = ddlog.Ground(&db, p.Program, ddlog.Config{MaxScanCounterparts: o.MaxScanCounterparts})
	})
	if err != nil {
		return err
	}
	graph := gr.Graph
	tr.add("ddlog.factors", float64(graph.NumFactors()))
	tr.add("ddlog.variables", float64(graph.NumVars()))

	lcfg := learn.Config{Epochs: o.LearningEpochs, LearningRate: o.LearningRate, L2: o.L2, Seed: o.Seed}
	if lcfg.Epochs <= 0 {
		lcfg.Epochs = 10 // Clean's defaults
	}
	if lcfg.LearningRate == 0 {
		lcfg.LearningRate = 0.1
	}
	tr.do("learn.learn", root, func() { learn.Learn(graph, lcfg) })

	cfg := gibbs.Config{BurnIn: o.GibbsBurnIn, Samples: o.GibbsSamples, Seed: o.Seed, Parallel: o.ParallelInference}
	if cfg.Samples <= 0 {
		cfg.Samples = 50
	}
	query := graph.NumQuery()
	if graph.HasNaryOnQuery() && query >= chromaticMinVars {
		tr.do("partition.color", root, func() { cfg.Colors = partition.ColorGraph(graph) })
		tr.add("partition.colors", float64(len(cfg.Colors)))
		cfg.IntraWorkers = max(o.IntraWorkers, 1)
	}
	tr.do("gibbs.infer", root, func() { gibbs.Run(graph, cfg) })
	tr.add("gibbs.var_sweeps", float64(query*(cfg.BurnIn+cfg.Samples)))
	return nil
}

// chromaticMinVars mirrors the query-variable count at which Clean
// switches a correlated shard to the chromatic Gibbs schedule.
const chromaticMinVars = 512

// digest is the SHA-256 of a dataset rendered as CSV.
func digest(ds *dataset.Dataset) string {
	h := sha256.New()
	if err := ds.WriteCSV(h); err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
