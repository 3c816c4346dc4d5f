package holoclean

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"time"

	"holoclean/internal/compile"
	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/ddlog"
	"holoclean/internal/errordetect"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/stats"
	"holoclean/internal/violation"
)

// Session wraps one dataset under continuous cleaning: after an initial
// full Clean, tuples can be upserted or deleted and Reclean re-repairs
// only the affected scope — scoped violation detection over the changed
// tuples and their index-reachable counterparts, delta-maintained
// statistics, shard-plan invalidation that re-executes only shards whose
// inputs changed, and weight reuse by tying key. For deltas that touch a
// small fraction of the data, Reclean produces exactly the repairs and
// marginals a from-scratch Clean of the mutated dataset would (given the
// same weights) at a fraction of the cost.
//
// A Session is not safe for concurrent use: callers running sessions
// behind a shared surface (e.g. the serve package) must serialize all
// method calls on one Session, while distinct Sessions are fully
// independent and may run in parallel.
type Session struct {
	opts        Options
	constraints []*Constraint
	ds          *Dataset

	cleaned  bool
	recleans int

	// confirmed accumulates user feedback (see Session.Feedback) in
	// confirmation order; the cells are trusted — clean by fiat and
	// labeled evidence on every relearn.
	confirmed []Feedback

	// touched tracks the tuple indexes mutated since the last clean.
	touched map[int]bool

	// Caches from the last clean.
	weights  map[string]float64
	prevRows [][]dataset.Value
	prevN    int
	prevViol []violation.Violation
	st       *stats.Stats // delta-maintained, unmasked
	masked   *stats.Stats // delta-maintained, clean-cell (nil when cooc features are off)
	domains  *prevDomains
	outcomes map[Cell]cellOutcome
	prevSigs map[string]bool
	matches  map[int][]extdict.Match
	shared   *ddlog.SharedIndex
	// interner is the canonical tying-key store shared by every grounding
	// of the session's lifetime, so recleans allocate no key strings for
	// signal families the initial Clean already named.
	interner *factor.KeyInterner
}

// prevDomains is the cached noisy-cell domain map of the previous run.
type prevDomains struct {
	cells map[Cell][]dataset.Value
	// noisyAttrs maps tuple → set of attributes flagged noisy.
	noisyAttrs map[int]map[int]bool
}

// NewSession starts a cleaning session over a copy of ds (later mutations
// through Upsert and Delete never touch the caller's dataset). The same
// validation as Clean applies: at least one repair signal is required.
func NewSession(ds *Dataset, constraints []*Constraint, opts Options) (*Session, error) {
	if len(constraints) == 0 && len(opts.MatchDependencies) == 0 {
		return nil, fmt.Errorf("holoclean: no repair signals (need constraints or match dependencies)")
	}
	return &Session{
		opts:        opts,
		constraints: constraints,
		ds:          ds.Clone(),
		touched:     make(map[int]bool),
	}, nil
}

// Dataset returns a snapshot of the session's current (dirty) dataset.
func (s *Session) Dataset() *Dataset { return s.ds.Clone() }

// newCleaner builds the session's pipeline runner, carrying the
// confirmed cells as trusted so they stay out of the noisy set on every
// run, full or incremental.
func (s *Session) newCleaner() *Cleaner {
	cl := &Cleaner{opts: s.opts}
	for _, f := range s.confirmed {
		cl.trusted = append(cl.trusted, f.Cell)
	}
	return cl
}

// NumTuples reports the current relation size.
func (s *Session) NumTuples() int { return s.ds.NumTuples() }

// Attrs returns the schema attribute names (shared; do not mutate).
func (s *Session) Attrs() []string { return s.ds.Attrs() }

// Recleans reports how many pipeline rounds ran after the initial Clean
// (delta recleans and feedback rounds both count — they share the
// Options.RelearnEvery clock).
func (s *Session) Recleans() int { return s.recleans }

// PendingMutations reports how many tuples have staged changes not yet
// folded in by a successful Reclean. Snapshot callers use it to honor
// Snapshot's precondition: a session with pending mutations is not in a
// serializable steady state.
func (s *Session) PendingMutations() int { return len(s.touched) }

// Weights returns a copy of the session's learned weight map (tying key →
// value), usable as Options.InitialWeights.
func (s *Session) Weights() map[string]float64 {
	return maps.Clone(s.weights)
}

// Upsert replaces tuple t with the given values, or appends a new tuple
// when t is -1 (or equals the current tuple count). It returns the index
// of the written tuple. The change takes effect at the next Reclean.
func (s *Session) Upsert(t int, values []string) (int, error) {
	if len(values) != s.ds.NumAttrs() {
		return -1, fmt.Errorf("holoclean: Upsert got %d values for %d attributes", len(values), s.ds.NumAttrs())
	}
	n := s.ds.NumTuples()
	if t == -1 || t == n {
		t = s.ds.Append(values)
	} else if t >= 0 && t < n {
		for a, v := range values {
			s.ds.SetString(t, a, v)
		}
		// An upsert that overwrites a confirmed value supersedes the
		// confirmation: the cell re-enters normal detection instead of
		// staying pinned to ground truth that no longer matches the data.
		s.confirmed = slices.DeleteFunc(s.confirmed, func(f Feedback) bool {
			return f.Cell.Tuple == t && s.ds.GetString(t, f.Cell.Attr) != f.Value
		})
	} else {
		return -1, fmt.Errorf("holoclean: Upsert index %d out of range [0, %d]", t, n)
	}
	s.touched[t] = true
	return t, nil
}

// Delete removes tuple t by moving the last tuple into its slot (the
// relation is a set; order is not preserved). Only the moved tuple is
// renumbered, which keeps a deletion's invalidation footprint small.
func (s *Session) Delete(t int) error {
	n := s.ds.NumTuples()
	if t < 0 || t >= n {
		return fmt.Errorf("holoclean: Delete index %d out of range [0, %d)", t, n)
	}
	s.ds.DeleteSwap(t)
	if t < s.ds.NumTuples() {
		s.touched[t] = true // the swapped-in tuple is renumbered
	}
	delete(s.touched, s.ds.NumTuples()) // the vacated last slot no longer exists
	// Confirmations follow the tuples: the deleted tuple's die with it,
	// the swapped-in tuple's are renumbered to its new slot.
	old := s.confirmed
	s.confirmed = s.confirmed[:0]
	for _, f := range old {
		switch f.Cell.Tuple {
		case t:
			continue
		case s.ds.NumTuples():
			f.Cell.Tuple = t
		}
		s.confirmed = append(s.confirmed, f)
	}
	return nil
}

// Clean runs the full pipeline — detection, statistics, pruning, weight
// learning, grounding, inference — over the session's current dataset and
// primes the caches Reclean builds on. The first Reclean of a fresh
// session calls it implicitly.
func (s *Session) Clean() (*Result, error) {
	return s.runFull(true)
}

// runFull executes the full pipeline over the session's current dataset
// — learning weights when relearn is true (or none are cached yet),
// reusing them by tying key otherwise — and adopts the run's caches.
// Clean, Feedback, and RestoreSession all funnel through here so weight
// adoption and cache refresh cannot drift apart between paths.
func (s *Session) runFull(relearn bool) (*Result, error) {
	cl := s.newCleaner()
	if !relearn && s.weights != nil {
		cl.opts.InitialWeights = s.weights
	}
	res, art, err := cl.clean(s.ds, s.constraints, nil)
	if err != nil {
		return nil, err
	}
	s.weights = make(map[string]float64, len(res.LearnedWeights))
	for k, v := range res.LearnedWeights {
		s.weights[k] = v
	}
	s.adopt(res, art)
	s.cleaned = true
	return res, nil
}

// Reclean re-repairs the dataset after the pending Upsert/Delete batch.
// Weights learned by the initial Clean are reused via their tying keys
// unless Options.RelearnEvery schedules a relearn for this round; given
// reused weights, the output is identical to Clean on the mutated
// dataset, but only shards whose inputs the delta invalidated execute
// (Result.Stats.ShardsReused counts the carried-forward remainder).
func (s *Session) Reclean() (*Result, error) {
	if !s.cleaned {
		return s.Clean()
	}
	s.recleans++
	if s.opts.RelearnEvery > 0 && s.recleans%s.opts.RelearnEvery == 0 {
		// Scheduled relearn: run the full pipeline and refresh every
		// cache, exactly like the initial Clean.
		return s.Clean()
	}

	start := time.Now()
	ds, n := s.ds, s.ds.NumTuples()
	cl := s.newCleaner()
	resized := n != s.prevN

	// --- Changed tuples: touched slots whose content actually differs
	// from the last-clean snapshot, plus appended slots. ---
	changed := make(map[int]bool)
	changedAttrs := make(map[int]bool) // attributes with any value change
	for t := range s.touched {
		if t >= n {
			continue
		}
		if t >= s.prevN {
			changed[t] = true
			continue
		}
		diff := false
		for a := 0; a < ds.NumAttrs(); a++ {
			if ds.Get(t, a) != s.prevRows[t][a] {
				changedAttrs[a] = true
				diff = true
			}
		}
		if diff {
			changed[t] = true
		}
	}
	for t := s.prevN; t < n; t++ {
		changed[t] = true
	}

	// --- Scoped error detection: re-detect only pairs touching changed
	// tuples; violations among untouched tuples carry forward. ---
	tDetect := time.Now()
	violDet := &errordetect.Violations{
		Constraints: s.constraints,
		Prev:        s.prevViol,
		Changed:     changed,
	}
	detectors, err := cl.detectors(ds, s.constraints, violDet)
	if err != nil {
		return nil, err
	}
	detection, err := errordetect.Run(ds, detectors...)
	if err != nil {
		return nil, err
	}
	hyper := violDet.LastHypergraph
	detectTime := time.Since(tDetect)

	// --- Noisy-mask diff: tuples whose flagged attribute set changed
	// re-enter the masked statistics and are dirty (their cells gained or
	// lost variables, and sibling-domain discounts may shift). ---
	newNoisy := make(map[int]map[int]bool)
	for _, c := range detection.Noisy {
		if newNoisy[c.Tuple] == nil {
			newNoisy[c.Tuple] = make(map[int]bool)
		}
		newNoisy[c.Tuple][c.Attr] = true
	}
	maskChanged := make(map[int]bool)
	for t, attrs := range newNoisy {
		if changed[t] {
			continue
		}
		if !attrSetEqual(attrs, s.domains.noisyAttrs[t]) {
			maskChanged[t] = true
		}
	}
	for t, attrs := range s.domains.noisyAttrs {
		if t < n && !changed[t] && !maskChanged[t] && !attrSetEqual(attrs, newNoisy[t]) {
			maskChanged[t] = true
		}
	}

	// --- Delta statistics: reapply exactly the tuple views whose
	// contribution changed. prevQuasi is taken before the unmasked apply
	// so quasi-key flips are observable. ---
	prevQuasi := make([]bool, ds.NumAttrs())
	for a := range prevQuasi {
		prevQuasi[a] = s.st.DistinctValues(a)*4 > s.prevN
	}
	tStats := time.Now()
	stDelta, maskedDelta := s.applyStatDeltas(changed, maskChanged, newNoisy)
	statsTime := time.Since(tStats)

	// --- Compile: full pruning over the new noisy set, statistics and
	// detection injected, no evidence sampling (weights are reused). ---
	copts := cl.compileOptions()
	copts.Interner = s.interner
	copts.Detection = detection
	copts.Hypergraph = hyper
	copts.Stats = s.st
	copts.MaskedStats = s.masked
	copts.SkipEvidence = true
	prep, err := compile.Prepare(ds, s.constraints, copts)
	if err != nil {
		return nil, err
	}

	// --- Candidate diff: cells whose pruned domain changed invalidate
	// their tuple (and, through the join buckets, their counterparts).
	// Every candidate change also shifts the shared candidate-label
	// buckets of its attribute — including changes on tuples that are
	// already dirty for other reasons — so the attribute's cached index
	// must be rebuilt either way. ---
	candChanged := make(map[int]bool)
	newCells := make(map[Cell]bool, len(prep.Domains.Cells))
	for i, c := range prep.Domains.Cells {
		newCells[c] = true
		if !valsEqual(prep.Domains.Candidates[i], s.domains.cells[c]) {
			changedAttrs[c.Attr] = true
			if !changed[c.Tuple] && !maskChanged[c.Tuple] {
				candChanged[c.Tuple] = true
			}
		}
	}
	for c := range s.domains.cells {
		if !newCells[c] {
			// The cell left the noisy set: its candidate-set contribution
			// to the attribute's label buckets collapses to its initial
			// value.
			changedAttrs[c.Attr] = true
		}
	}

	// --- Shared-index refresh: keep per-attribute indexes untouched by
	// the delta, drop the rest, rebind to the mutated dataset. ---
	dirtyAttrs := make(map[int]bool)
	if resized {
		for a := 0; a < ds.NumAttrs(); a++ {
			dirtyAttrs[a] = true
		}
	} else {
		for a := range changedAttrs {
			dirtyAttrs[a] = true
		}
	}
	s.shared.Rebind(ds, prep.Domains, dirtyAttrs)

	// --- Dictionary matches: recomputed in full by Prepare; tuples whose
	// match list changed are dirty. ---
	matchChanged := s.diffMatches(prep.Matches)

	// --- Dirty closure: changed tuples, mask/candidate/match diffs, and
	// one join hop outward — any tuple whose candidate labels intersect a
	// source tuple's old or new labels on a constraint equality join may
	// gain or lose grounded counterparts. Statistics-context dirt is
	// added per cell. ---
	globalDirty := ds.HasSources() // source-fusion features are global
	for _, b := range prep.Bounds {
		if b.TupleVars == 2 && len(crossEqPreds(b)) == 0 {
			globalDirty = true // scan-grounded constraint: no index to scope by
		}
	}

	dirty := make(map[int]bool)
	for t := range changed {
		dirty[t] = true
	}
	for t := range maskChanged {
		dirty[t] = true
	}
	for t := range candChanged {
		dirty[t] = true
	}
	for t := range matchChanged {
		dirty[t] = true
	}
	if !globalDirty {
		s.propagateJoins(prep, changed, maskChanged, candChanged, dirty)
		s.markStatDirty(prep, stDelta, maskedDelta, prevQuasi, dirty)
	}

	inc := &incrementalInputs{
		prep:       prep,
		weights:    s.weights,
		shared:     s.shared,
		interner:   s.interner,
		prevSigs:   s.prevSigs,
		outcomes:   s.outcomes,
		start:      start,
		detectTime: detectTime,
		statsTime:  statsTime,
	}
	if !globalDirty {
		inc.dirty = dirty
	}
	res, art, err := cl.clean(ds, s.constraints, inc)
	if err != nil {
		return nil, err
	}
	s.adopt(res, art)
	return res, nil
}

// applyStatDeltas reapplies the changed tuples' contributions to the
// unmasked and masked statistics and returns both change summaries.
func (s *Session) applyStatDeltas(changed, maskChanged map[int]bool, newNoisy map[int]map[int]bool) (stDelta, maskedDelta *stats.Delta) {
	ds, n := s.ds, s.ds.NumTuples()
	var remSt, addSt, remM, addM []stats.TupleView
	oldMaskView := func(t int) stats.TupleView {
		attrs := s.domains.noisyAttrs[t]
		return stats.View(s.prevRows[t], func(a int) bool { return !attrs[a] })
	}
	newMaskView := func(t int) stats.TupleView {
		attrs := newNoisy[t]
		return stats.View(ds.Row(t), func(a int) bool { return !attrs[a] })
	}
	for t := range changed {
		if t < s.prevN {
			remSt = append(remSt, stats.View(s.prevRows[t], nil))
			remM = append(remM, oldMaskView(t))
		}
		if t < n {
			addSt = append(addSt, stats.View(ds.Row(t), nil))
			addM = append(addM, newMaskView(t))
		}
	}
	for t := n; t < s.prevN; t++ { // deleted tail slots
		remSt = append(remSt, stats.View(s.prevRows[t], nil))
		remM = append(remM, oldMaskView(t))
	}
	for t := range maskChanged { // content unchanged, flags moved
		remM = append(remM, oldMaskView(t))
		addM = append(addM, newMaskView(t))
	}
	stDelta = s.st.Apply(remSt, addSt)
	if s.masked != nil {
		maskedDelta = s.masked.Apply(remM, addM)
	} else {
		maskedDelta = stats.NewDelta()
	}
	return stDelta, maskedDelta
}

// crossEqPreds returns the indexes of equality predicates joining the two
// tuple roles of a bound constraint — the joins grounding uses to find
// counterpart tuples.
func crossEqPreds(b *dc.Bound) []int {
	var out []int
	for i := range b.Preds {
		p := &b.Preds[i]
		if p.Op == dc.Eq && !p.RightIsConst && p.LeftTuple != p.RightTuple {
			out = append(out, i)
		}
	}
	return out
}

// propagateJoins marks as dirty every tuple whose grounded counterpart
// set may have changed: for each constraint σ and each source tuple m
// whose delta touches an attribute σ references, the tuples whose
// candidate labels intersect m's old or new labels on σ's equality-join
// attributes are one join hop from the delta and re-execute. Constraints
// that reference none of a source's changed attributes see exactly the
// same counterpart contributions as before and propagate nothing.
//
// A source's relevant changes are its initial-value changes (counterpart
// rows fold into relaxed features and DC factors by value); under
// correlation-factor variants, candidate-set and noisy-mask changes on
// referenced attributes count too, since DC grounding joins through
// candidate-label buckets and scopes pairs by the query-attribute map.
func (s *Session) propagateJoins(prep *compile.Prepared, changed, maskChanged, candChanged, dirty map[int]bool) {
	ds, n := s.ds, s.ds.NumTuples()
	coupled := s.opts.Variant.DCFactors

	// sourceAttrs maps each source tuple to the attribute set its delta
	// touched (nil means every attribute: appended or deleted tuples).
	sourceAttrs := make(map[int]map[int]bool)
	all := func(t int) { sourceAttrs[t] = nil }
	add := func(t, a int) {
		if attrs, ok := sourceAttrs[t]; !ok || attrs != nil {
			if !ok {
				sourceAttrs[t] = map[int]bool{a: true}
			} else {
				attrs[a] = true
			}
		}
	}
	for t := range changed {
		if t >= s.prevN || t >= n {
			all(t)
			continue
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			if ds.Get(t, a) != s.prevRows[t][a] {
				add(t, a)
			}
		}
	}
	for t := n; t < s.prevN; t++ {
		all(t) // deleted slots vacate every join bucket
	}
	if coupled {
		candMaskAttrs := func(t int) {
			for a := 0; a < ds.NumAttrs(); a++ {
				c := Cell{Tuple: t, Attr: a}
				var cur []dataset.Value
				if t < n {
					cur = prep.Domains.Of(c)
				}
				if !valsEqual(cur, s.domains.cells[c]) {
					add(t, a)
				}
			}
		}
		for t := range maskChanged {
			candMaskAttrs(t)
		}
		for t := range candChanged {
			candMaskAttrs(t)
		}
	}

	// srcLabels gathers the old and new labels tuple m exposes on attr:
	// initial values plus noisy-cell candidate sets, before and after.
	srcLabels := func(m, attr int) []dataset.Value {
		var out []dataset.Value
		if m < s.prevN {
			if v := s.prevRows[m][attr]; v != dataset.Null {
				out = append(out, v)
			}
			out = append(out, s.domains.cells[Cell{Tuple: m, Attr: attr}]...)
		}
		if m < n {
			if v := ds.Get(m, attr); v != dataset.Null {
				out = append(out, v)
			}
			out = append(out, prep.Domains.Of(Cell{Tuple: m, Attr: attr})...)
		}
		return out
	}
	mark := func(attr int, vals []dataset.Value) {
		if len(vals) == 0 {
			return
		}
		buckets := s.shared.Candidates(attr)
		for _, v := range vals {
			for _, t := range buckets[int32(v)] {
				dirty[t] = true
			}
		}
	}
	for _, b := range prep.Bounds {
		if b.TupleVars != 2 {
			continue
		}
		refs := referencedAttrs(b)
		eqs := crossEqPreds(b)
		for m, attrs := range sourceAttrs {
			relevant := attrs == nil
			for a := range attrs {
				if refs[a] {
					relevant = true
					break
				}
			}
			if !relevant {
				continue
			}
			for _, pi := range eqs {
				p := &b.Preds[pi]
				mark(p.LeftAttr, srcLabels(m, p.RightAttr))
				mark(p.RightAttr, srcLabels(m, p.LeftAttr))
			}
		}
	}
}

// referencedAttrs collects every attribute a bound constraint's
// predicates mention on either tuple role.
func referencedAttrs(b *dc.Bound) map[int]bool {
	out := make(map[int]bool)
	for i := range b.Preds {
		p := &b.Preds[i]
		out[p.LeftAttr] = true
		if !p.RightIsConst {
			out[p.RightAttr] = true
		}
	}
	return out
}

// markStatDirty adds statistics-context dirt: a cell whose frequency
// prior, co-occurrence features, or quasi-key classification read a
// counter the delta touched must re-ground and re-infer (its whole tuple
// does, to keep sibling-domain discounts shard-local).
func (s *Session) markStatDirty(prep *compile.Prepared, stDelta, maskedDelta *stats.Delta, prevQuasi []bool, dirty map[int]bool) {
	if s.opts.DisableCooccurFeatures {
		return // no statistics-backed features in the model
	}
	ds := s.ds
	quasiFlip := make([]bool, ds.NumAttrs())
	for a := range quasiFlip {
		quasiFlip[a] = prevQuasi[a] != (s.st.DistinctValues(a)*4 > ds.NumTuples())
	}
	for i, c := range prep.Domains.Cells {
		if dirty[c.Tuple] {
			continue
		}
		if quasiFlip[c.Attr] {
			dirty[c.Tuple] = true
			continue
		}
		// Frequency prior: masked counts of the candidate labels.
		for _, l := range prep.Domains.Candidates[i] {
			if maskedDelta.TouchedFreq(c.Attr, l) {
				dirty[c.Tuple] = true
				break
			}
		}
		if dirty[c.Tuple] {
			continue
		}
		// Co-occurrence families: gate frequencies and histogram shape of
		// the sibling conditioning values, plus — per candidate — the
		// histogram buckets the feature vector actually reads, over both
		// statistics sets.
		for g := 0; g < ds.NumAttrs() && !dirty[c.Tuple]; g++ {
			if g == c.Attr {
				continue
			}
			vg := ds.Get(c.Tuple, g)
			if vg == dataset.Null {
				continue
			}
			if stDelta.TouchedFreq(g, vg) || maskedDelta.TouchedFreq(g, vg) ||
				stDelta.CondShapeChanged(c.Attr, g, vg) || maskedDelta.CondShapeChanged(c.Attr, g, vg) {
				dirty[c.Tuple] = true
				break
			}
			for _, d := range prep.Domains.Candidates[i] {
				if stDelta.TouchedCond(c.Attr, d, g, vg) || maskedDelta.TouchedCond(c.Attr, d, g, vg) {
					dirty[c.Tuple] = true
					break
				}
			}
		}
	}
}

// diffMatches compares the new per-tuple dictionary matches against the
// cached ones and returns the tuples whose suggestions changed. Without
// matching dependencies it is a no-op.
func (s *Session) diffMatches(matches []extdict.Match) map[int]bool {
	out := make(map[int]bool)
	if len(s.opts.MatchDependencies) == 0 {
		return out
	}
	byTuple := matchesByTuple(matches)
	for t, ms := range byTuple {
		if !reflect.DeepEqual(ms, s.matches[t]) {
			out[t] = true
		}
	}
	for t := range s.matches {
		if t < s.ds.NumTuples() && byTuple[t] == nil {
			out[t] = true
		}
	}
	return out
}

func matchesByTuple(matches []extdict.Match) map[int][]extdict.Match {
	out := make(map[int][]extdict.Match)
	for _, m := range matches {
		out[m.Cell.Tuple] = append(out[m.Cell.Tuple], m)
	}
	return out
}

// adopt replaces the session caches with the state of a finished run.
func (s *Session) adopt(res *Result, art *cleanArtifacts) {
	prep := art.prep
	s.prevN = s.ds.NumTuples()
	s.prevRows = make([][]dataset.Value, s.prevN)
	for t := 0; t < s.prevN; t++ {
		s.prevRows[t] = append([]dataset.Value(nil), s.ds.Row(t)...)
	}
	if h := prep.Hypergraph; h != nil {
		s.prevViol = h.Violations
	} else {
		s.prevViol = nil
	}
	s.st = prep.Stats
	s.masked = prep.MaskedStats
	s.domains = &prevDomains{
		cells:      make(map[Cell][]dataset.Value, len(prep.Domains.Cells)),
		noisyAttrs: make(map[int]map[int]bool),
	}
	for i, c := range prep.Domains.Cells {
		s.domains.cells[c] = prep.Domains.Candidates[i]
	}
	// The noisy mask mirrors raw detection, not the trusted-filtered
	// domain cells: masked statistics discount by detection flags alone
	// (compile.CollectFiltered), so the session's delta maintenance must
	// diff against the same mask even when confirmed cells are excluded
	// from the query domains.
	for _, c := range prep.Detection.Noisy {
		if s.domains.noisyAttrs[c.Tuple] == nil {
			s.domains.noisyAttrs[c.Tuple] = make(map[int]bool)
		}
		s.domains.noisyAttrs[c.Tuple][c.Attr] = true
	}
	s.outcomes = make(map[Cell]cellOutcome, len(art.runner.outcomes))
	for c, o := range art.runner.outcomes {
		s.outcomes[c] = cellOutcome{
			dist:   append([]ValueProb(nil), o.dist...),
			mapVal: o.mapVal,
			prob:   o.prob,
		}
	}
	s.prevSigs = make(map[string]bool, len(art.plan))
	for _, sh := range art.plan {
		s.prevSigs[sh.fingerprint(prep.Domains.Cells)] = true
	}
	s.matches = matchesByTuple(prep.Matches)
	s.shared = art.shared
	s.interner = art.interner
	s.touched = make(map[int]bool)
}

// attrSetEqual compares two attribute sets (nil counts as empty).
func attrSetEqual(a, b map[int]bool) bool { return maps.Equal(a, b) }

// valsEqual compares two candidate slices.
func valsEqual(a, b []dataset.Value) bool { return slices.Equal(a, b) }
