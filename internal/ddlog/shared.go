package ddlog

import (
	"encoding/binary"
	"slices"
	"sync"

	"holoclean/internal/dataset"
	"holoclean/internal/pruning"
)

// SharedIndex caches the dataset-wide indexes grounding consults — the
// counterpart classes of relaxed denial constraints and the
// per-attribute candidate-label buckets used to join denial constraints.
// A single SharedIndex is built from the global domains and shared
// read-mostly across the per-shard grounders of the sharded pipeline, so
// the O(|D|) index builds happen once per run instead of once per shard.
// All methods are safe for concurrent use.
type SharedIndex struct {
	ds      *dataset.Dataset
	domains *pruning.Domains

	mu      sync.RWMutex
	classes map[string]classIndex
	cand    map[int]map[int32][]int
}

// counterpartClass is a set of counterpart tuples that agree, on their
// initial values, on every attribute a relaxed denial constraint reads
// from the counterpart's tuple variable. Every predicate sees the same
// values for each member, so grounding evaluates the class once through
// its representative and weighs the result by its size. On data with few
// distinct contexts (a dozen zips, a few dozen measure codes) a join
// group of hundreds of tuples collapses to a handful of classes.
type counterpartClass struct {
	rep int   // a member tuple
	n   int32 // number of members
}

// classIndex is the counterpart classes over one attribute list, grouped
// by the value of its first (join) attribute.
type classIndex struct {
	attrs   []int
	byValue map[dataset.Value][]counterpartClass
}

// buildClasses groups the tuples with a non-null value on attrs[0] into
// counterpart classes by their values on attrs, in tuple order.
func buildClasses(ds *dataset.Dataset, attrs []int) map[dataset.Value][]counterpartClass {
	out := make(map[dataset.Value][]counterpartClass)
	pos := make(map[string]int)
	key := make([]byte, 0, 4*len(attrs))
	for t := 0; t < ds.NumTuples(); t++ {
		v := ds.Get(t, attrs[0])
		if v == dataset.Null {
			continue
		}
		key = key[:0]
		for _, a := range attrs {
			key = binary.LittleEndian.AppendUint32(key, uint32(ds.Get(t, a)))
		}
		if i, ok := pos[string(key)]; ok {
			out[v][i].n++
			continue
		}
		pos[string(key)] = len(out[v])
		out[v] = append(out[v], counterpartClass{rep: t, n: 1})
	}
	return out
}

// classKey renders an attribute list as a map key.
func classKey(attrs []int) string {
	b := make([]byte, 0, 4*len(attrs))
	for _, a := range attrs {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return string(b)
}

// NewSharedIndex returns an empty index over the dataset and the global
// (pre-shard) noisy-cell domains. domains may be nil, in which case
// candidate buckets degrade to initial values only.
func NewSharedIndex(ds *dataset.Dataset, domains *pruning.Domains) *SharedIndex {
	return &SharedIndex{
		ds:      ds,
		domains: domains,
		classes: make(map[string]classIndex),
		cand:    make(map[int]map[int32][]int),
	}
}

// Rebind points the index at a mutated dataset and refreshed domains,
// dropping the cached indexes that read an attribute named in dirtyAttrs
// and keeping the rest. An index may be kept only when nothing it was
// built from changed: no tuple's initial value on any attribute it reads
// (a class index reads its join attribute and every projected attribute),
// no noisy cell's candidate set on it, and — because appends and
// deletions add or remove entries in every attribute — the tuple count.
// Incremental cleaning sessions call this once per reclean so the O(|D|)
// index builds of untouched attributes survive the delta.
func (s *SharedIndex) Rebind(ds *dataset.Dataset, domains *pruning.Domains, dirtyAttrs map[int]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ds = ds
	s.domains = domains
	for a := range dirtyAttrs {
		delete(s.cand, a)
	}
	for k, ci := range s.classes {
		for _, a := range ci.attrs {
			if dirtyAttrs[a] {
				delete(s.classes, k)
				break
			}
		}
	}
}

// classesOver returns the counterpart classes over attrs, grouped by the
// initial value of attrs[0]; tuples whose attrs[0] is null belong to no
// class. Built on first request and kept until Rebind drops it.
func (s *SharedIndex) classesOver(attrs []int) map[dataset.Value][]counterpartClass {
	k := classKey(attrs)
	s.mu.RLock()
	ci, ok := s.classes[k]
	ds := s.ds
	s.mu.RUnlock()
	if ok {
		return ci.byValue
	}
	idx := buildClasses(ds, attrs)
	s.mu.Lock()
	if prev, ok := s.classes[k]; ok {
		idx = prev.byValue // another shard built it concurrently; keep one copy
	} else {
		s.classes[k] = classIndex{attrs: slices.Clone(attrs), byValue: idx}
	}
	s.mu.Unlock()
	return idx
}

// Candidates returns the candidate-label buckets of attr: label → tuples
// whose cell (t, attr) can take that label. Noisy cells contribute every
// value of their global pruned domain; all other cells contribute their
// initial value. This reproduces, from the global view, exactly the
// labels grounder.candidateLabels yields on a monolithic graph, so a
// shard joining through these buckets sees the same counterpart pairs the
// monolithic grounder would.
func (s *SharedIndex) Candidates(attr int) map[int32][]int {
	s.mu.RLock()
	idx := s.cand[attr]
	s.mu.RUnlock()
	if idx != nil {
		return idx
	}
	idx = make(map[int32][]int)
	for t := 0; t < s.ds.NumTuples(); t++ {
		c := dataset.Cell{Tuple: t, Attr: attr}
		var cands []dataset.Value
		if s.domains != nil {
			cands = s.domains.Of(c)
		}
		if len(cands) > 0 {
			for _, v := range cands {
				idx[int32(v)] = append(idx[int32(v)], t)
			}
			continue
		}
		if v := s.ds.Get(t, attr); v != dataset.Null {
			idx[int32(v)] = append(idx[int32(v)], t)
		}
	}
	s.mu.Lock()
	if prev := s.cand[attr]; prev != nil {
		idx = prev
	} else {
		s.cand[attr] = idx
	}
	s.mu.Unlock()
	return idx
}

// Scope restricts denial-constraint factor grounding to one shard of the
// sharded pipeline. A pair is grounded only when every tuple that would
// contribute query variables to the factor lies inside the shard; pairs
// reaching, on a constraint-referenced attribute, a query variable of
// another shard are skipped — the cross-shard independence approximation
// of Algorithm 3, applied to the end-to-end pipeline. Tuples whose
// referenced cells are all clean (or noisy only on attributes the
// constraint never mentions) always participate: the grounder folds them
// to constants, yielding exactly the factor a monolithic grounding
// emits.
type Scope struct {
	// InShard marks the tuples whose noisy cells this shard owns.
	InShard map[int]bool
	// QueryAttrs maps each tuple owning query variables in the global
	// model (across all shards) to the set of attributes those variables
	// live on.
	QueryAttrs map[int]map[int]bool
	// Boundary, when positive, grounds the pairs admits would reject
	// instead of skipping them: the out-of-shard side's query cells fold
	// to their observed values (the grounder's clean-cell path) and the
	// factor's weight is scaled by Boundary. This is the boundary-factor
	// damping of split components — a cavity-style extension of the
	// Algorithm 3 scope cut: where the cut drops a cross-shard correlation
	// entirely, damping keeps it as a weakened pull toward the neighbor's
	// observed value. Both sub-shards of a split ground their side of each
	// boundary pair, so a coefficient of 0.5 restores roughly one full
	// factor's worth of energy per cut pair. Zero (the default) keeps the
	// exact legacy cut.
	Boundary float64
}

// admits reports whether tuple t may fill a constraint role that
// references attrs. t == -1 (single-tuple constraints) always passes.
func (sc *Scope) admits(t int, attrs []int) bool {
	if sc == nil || t < 0 || sc.InShard[t] {
		return true
	}
	qa := sc.QueryAttrs[t]
	if qa == nil {
		return true
	}
	for _, a := range attrs {
		if qa[a] {
			return false
		}
	}
	return true
}
