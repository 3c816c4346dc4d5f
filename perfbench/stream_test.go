package main

import (
	"testing"
	"time"

	"holoclean"
	"holoclean/internal/datagen"
)

// TestDeltaStreamStationary drives a Session with the stationary delta
// stream and checks that neither the noisy-cell count nor the reclean
// latency trends over the run: the last rounds must look like the first.
func TestDeltaStreamStationary(t *testing.T) {
	const rounds, window = 240, 60
	g := datagen.Hospital(datagen.Config{Tuples: streamTuples, Seed: 1})
	s, err := holoclean.NewSession(g.Dirty, g.Constraints, holoclean.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, g.Dirty.NumTuples())
	for i := range rows {
		rows[i] = make([]string, g.Dirty.NumAttrs())
		for a := range rows[i] {
			rows[i][a] = g.Dirty.GetString(i, a)
		}
	}
	stream := newDeltaStream(1, rows, streamErrAttrs, streamDeltaFrac)
	var noisy, lat []float64
	for r := 0; r < rounds; r++ {
		if err := upsertAll(s, stream.next()); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, ms(time.Since(start)))
		noisy = append(noisy, float64(res.Stats.NoisyCells))
	}
	n0, n1 := mean(noisy[:window]), mean(noisy[rounds-window:])
	l0, l1 := median(lat[:window]), median(lat[rounds-window:])
	t.Logf("noisy cells: first %d rounds %.1f, last %d rounds %.1f", window, n0, window, n1)
	t.Logf("reclean median: first %d rounds %.2f ms, last %d rounds %.2f ms", window, l0, window, l1)
	if n1 > n0*1.05 || n1 < n0*0.95 {
		t.Errorf("noisy cells drifted from %.1f to %.1f", n0, n1)
	}
	if l1 > l0*1.3 {
		t.Errorf("reclean latency drifted from %.2f ms to %.2f ms", l0, l1)
	}
}
