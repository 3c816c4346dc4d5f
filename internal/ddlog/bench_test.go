package ddlog_test

import (
	"testing"

	"holoclean/internal/compile"
	"holoclean/internal/datagen"
	"holoclean/internal/ddlog"
)

// BenchmarkGround grounds the full hospital-1000 program (the default
// DC-Feats model) monolithically, the way a single-shard Clean does:
// variables, co-occurrence features, minimality priors and every
// relaxed denial constraint.
func BenchmarkGround(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 1000, Seed: 1})
	prep, err := compile.Prepare(g.Dirty, g.Constraints, compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
