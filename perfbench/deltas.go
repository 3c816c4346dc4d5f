package main

import (
	"fmt"
	"math/rand"

	"holoclean/serve"
)

// deltaStream generates a stationary stream of delta batches over one
// relation: every batch first restores the tuples the previous batch
// corrupted to their original values, then corrupts a fresh set of
// tuples in one attribute each. The number of corrupted tuples — and so the
// noisy-cell count and the reclean cost — stays flat however long the
// stream runs, where a stream that only ever adds errors drifts.
type deltaStream struct {
	rng   *rand.Rand
	orig  [][]string // the relation as generated
	cur   [][]string // the relation after every batch so far
	attrs []int      // attributes a batch may corrupt
	size  int        // tuples corrupted per batch
	prev  []int      // tuples the previous batch corrupted
}

// newDeltaStream starts a stream over rows (not modified), corrupting
// frac of the tuples per batch (at least one) on the given attributes.
func newDeltaStream(seed int64, rows [][]string, attrs []int, frac float64) *deltaStream {
	s := &deltaStream{
		rng:   rand.New(rand.NewSource(seed)),
		attrs: attrs,
		size:  max(1, int(frac*float64(len(rows)))),
	}
	for _, r := range rows {
		s.orig = append(s.orig, append([]string(nil), r...))
		s.cur = append(s.cur, append([]string(nil), r...))
	}
	return s
}

// next returns the following batch as upserts of whole tuples and
// applies it to the stream's view of the relation. A corruption appends
// one of ten suffixes to the value, so the stream draws from a bounded
// set of dirty values however long it runs.
func (s *deltaStream) next() []serve.DeltaOp {
	var ops []serve.DeltaOp
	upsert := func(t int, row []string) {
		s.cur[t] = row
		ops = append(ops, serve.DeltaOp{Op: "upsert", Row: t, Values: append([]string(nil), row...)})
	}
	skip := make(map[int]bool, 2*s.size)
	for _, t := range s.prev {
		upsert(t, append([]string(nil), s.orig[t]...))
		skip[t] = true
	}
	s.prev = s.prev[:0]
	for len(s.prev) < s.size {
		t := s.rng.Intn(len(s.cur))
		if skip[t] {
			continue
		}
		skip[t] = true
		row := append([]string(nil), s.orig[t]...)
		a := s.attrs[s.rng.Intn(len(s.attrs))]
		row[a] = fmt.Sprintf("%s~%d", row[a], s.rng.Intn(10))
		upsert(t, row)
		s.prev = append(s.prev, t)
	}
	return ops
}
