package pruning_test

import (
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/errordetect"
	"holoclean/internal/pruning"
	"holoclean/internal/stats"
)

// BenchmarkPruningCompute runs Algorithm 2 over the noisy cells that
// denial-constraint detection flags on hospital-1000, at the paper's
// hospital threshold τ = 0.5.
func BenchmarkPruningCompute(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 1000, Seed: 1})
	det, err := errordetect.Run(g.Dirty, &errordetect.Violations{Constraints: g.Constraints})
	if err != nil {
		b.Fatal(err)
	}
	st := stats.Collect(g.Dirty)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pruning.Compute(g.Dirty, st, det.Noisy, pruning.Config{Tau: 0.5})
	}
}
