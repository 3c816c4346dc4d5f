package stats_test

import (
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/errordetect"
	"holoclean/internal/stats"
)

// BenchmarkCollectFiltered collects the clean-cell statistics of
// hospital-1000: every cell denial-constraint detection flags is masked,
// as compile.Prepare does for the co-occurrence features.
func BenchmarkCollectFiltered(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 1000, Seed: 1})
	det, err := errordetect.Run(g.Dirty, &errordetect.Violations{Constraints: g.Constraints})
	if err != nil {
		b.Fatal(err)
	}
	skip := func(t, a int) bool { return det.IsNoisy(dataset.Cell{Tuple: t, Attr: a}) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.CollectFiltered(g.Dirty, skip)
	}
}
