package harness

import (
	"fmt"
	"io"
	"time"

	"holoclean"
	"holoclean/internal/compile"
	"holoclean/internal/datagen"
	"holoclean/internal/metrics"
)

// TauSweep is the pruning-threshold sweep of Figures 3–5.
var TauSweep = []float64{0.3, 0.5, 0.7, 0.9}

// Figure3Point is one bar of Figure 3: precision and recall at one τ.
type Figure3Point struct {
	Dataset   string
	Tau       float64
	Precision float64
	Recall    float64
	F1        float64
}

// Figure3 sweeps τ for every dataset with the DC Feats variant.
func Figure3(cfg Config) []Figure3Point {
	var out []Figure3Point
	for _, g := range Datasets(cfg) {
		for _, tau := range TauSweep {
			opts := HoloCleanOptions(g.Name)
			opts.Tau = tau
			r := RunHoloClean(g, opts)
			p := Figure3Point{Dataset: g.Name, Tau: tau}
			if r.Err == nil {
				p.Precision, p.Recall, p.F1 = r.Eval.Precision, r.Eval.Recall, r.Eval.F1
			}
			out = append(out, p)
		}
	}
	return out
}

// PrintFigure3 renders the sweep.
func PrintFigure3(w io.Writer, pts []Figure3Point) {
	fmt.Fprintf(w, "%-12s %5s %10s %10s %10s\n", "Dataset", "tau", "Precision", "Recall", "F1")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12s %5.1f %10.3f %10.3f %10.3f\n", p.Dataset, p.Tau, p.Precision, p.Recall, p.F1)
	}
}

// Figure4Point is one bar pair of Figure 4: compile and repair runtimes
// at one τ.
type Figure4Point struct {
	Dataset string
	Tau     float64
	Compile time.Duration // detection + statistics + pruning + grounding
	Repair  time.Duration // learning + inference
}

// Figure4 sweeps τ and reports phase timings.
func Figure4(cfg Config) []Figure4Point {
	var out []Figure4Point
	for _, g := range Datasets(cfg) {
		for _, tau := range TauSweep {
			opts := HoloCleanOptions(g.Name)
			opts.Tau = tau
			res, r := RunHoloCleanResult(g, opts)
			p := Figure4Point{Dataset: g.Name, Tau: tau}
			if r.Err == nil {
				p.Compile = res.Stats.DetectTime + res.Stats.CompileTime + res.Stats.GroundTime
				p.Repair = res.Stats.LearnTime + res.Stats.InferTime
			}
			out = append(out, p)
		}
	}
	return out
}

// PrintFigure4 renders the phase timings.
func PrintFigure4(w io.Writer, pts []Figure4Point) {
	fmt.Fprintf(w, "%-12s %5s %14s %14s\n", "Dataset", "tau", "Compile", "Repair")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12s %5.1f %14s %14s\n", p.Dataset, p.Tau,
			p.Compile.Round(time.Millisecond), p.Repair.Round(time.Millisecond))
	}
}

// Variants is the Figure 5 variant matrix.
var Variants = []holoclean.Variant{
	compile.DCFactorsOnly,
	compile.DCFactorsPartitioned,
	compile.DCFeats,
	compile.DCFeatsFactors,
	compile.DCFeatsFactorsPartTwo,
}

// Figure5Point is one bar group of Figure 5: one variant at one τ on Food.
type Figure5Point struct {
	Variant   string
	Tau       float64
	Runtime   time.Duration
	Compile   time.Duration
	Repair    time.Duration
	Precision float64
	Recall    float64
}

// Figure5 runs the five variants on the Food dataset across the τ sweep.
func Figure5(cfg Config) []Figure5Point {
	g := datagen.Food(datagen.Config{Tuples: cfg.FoodTuples, Seed: cfg.Seed})
	var out []Figure5Point
	for _, tau := range TauSweep {
		for _, v := range Variants {
			opts := HoloCleanOptions(g.Name)
			opts.Tau = tau
			opts.Variant = v
			res, r := RunHoloCleanResult(g, opts)
			p := Figure5Point{Variant: v.Name(), Tau: tau}
			if r.Err == nil {
				p.Runtime = r.Runtime
				p.Compile = res.Stats.DetectTime + res.Stats.CompileTime + res.Stats.GroundTime
				p.Repair = res.Stats.LearnTime + res.Stats.InferTime
				p.Precision = r.Eval.Precision
				p.Recall = r.Eval.Recall
			}
			out = append(out, p)
		}
	}
	return out
}

// PrintFigure5 renders the variant matrix.
func PrintFigure5(w io.Writer, pts []Figure5Point) {
	fmt.Fprintf(w, "%-40s %5s %12s %12s %10s %8s\n", "Variant", "tau", "Compile", "Repair", "Precision", "Recall")
	for _, p := range pts {
		fmt.Fprintf(w, "%-40s %5.1f %12s %12s %10.3f %8.3f\n", p.Variant, p.Tau,
			p.Compile.Round(time.Millisecond), p.Repair.Round(time.Millisecond), p.Precision, p.Recall)
	}
}

// Figure6 computes the calibration buckets: error rate of repairs by
// marginal-probability bucket, per dataset.
func Figure6(cfg Config) map[string][]metrics.Bucket {
	out := make(map[string][]metrics.Bucket)
	for _, g := range Datasets(cfg) {
		res, r := RunHoloCleanResult(g, HoloCleanOptions(g.Name))
		if r.Err != nil {
			continue
		}
		var probed []metrics.ProbedRepair
		for _, rep := range res.Repairs {
			correct := rep.New == g.Truth.GetString(rep.Tuple, rep.Cell.Attr)
			probed = append(probed, metrics.ProbedRepair{Probability: rep.Probability, Correct: correct})
		}
		out[g.Name] = metrics.Calibration(probed)
	}
	return out
}

// PrintFigure6 renders the calibration histogram.
func PrintFigure6(w io.Writer, buckets map[string][]metrics.Bucket) {
	fmt.Fprintf(w, "%-12s %-12s %8s %10s\n", "Dataset", "Bucket", "Repairs", "ErrorRate")
	for _, name := range []string{"hospital", "flights", "food", "physicians"} {
		for _, b := range buckets[name] {
			fmt.Fprintf(w, "%-12s [%.1f-%.1f)  %8d %10.3f\n", name, b.Lo, b.Hi, b.Count, b.ErrorRate)
		}
	}
}

// MicroExternalResult compares HoloClean with and without external
// dictionaries (Section 6.3.2).
type MicroExternalResult struct {
	Dataset     string
	F1Without   float64
	F1With      float64
	Coverage    float64
	MatchesUsed int
}

// MicroExternalDictionaries measures the F1 gain from matching
// dependencies on the datasets that have a dictionary.
func MicroExternalDictionaries(cfg Config) []MicroExternalResult {
	var out []MicroExternalResult
	for _, g := range Datasets(cfg) {
		if len(g.Dictionaries) == 0 {
			continue
		}
		base := RunHoloClean(g, HoloCleanOptions(g.Name))
		opts := HoloCleanOptions(g.Name)
		opts.Dictionaries = g.Dictionaries
		opts.MatchDependencies = g.MatchDeps
		with := RunHoloClean(g, opts)
		r := MicroExternalResult{Dataset: g.Name}
		if base.Err == nil {
			r.F1Without = base.Eval.F1
		}
		if with.Err == nil {
			r.F1With = with.Eval.F1
		}
		out = append(out, r)
	}
	return out
}

// PrintMicroExternal renders the external-data micro-benchmark.
func PrintMicroExternal(w io.Writer, rows []MicroExternalResult) {
	fmt.Fprintf(w, "%-12s %12s %12s %8s\n", "Dataset", "F1 w/o dict", "F1 w/ dict", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.3f %12.3f %+8.3f\n", r.Dataset, r.F1Without, r.F1With, r.F1With-r.F1Without)
	}
}
