package ddlog

import (
	"slices"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// groundRelaxedDC grounds one single-head relaxation of a denial
// constraint (Section 5.2, Example 6). For the head cell reference
// hr = (tv, A), every variable on attribute A whose tuple plays role tv is
// a head; the remaining predicates are evaluated against initial values
// (the InitValue(…) body atoms of Example 6). Counterpart tuples whose
// initial values complete a violation contribute negative evidence
// against the violating candidate values.
//
// The per-counterpart groundings of a cell are aggregated into one soft
// factor whose value at candidate d is minus the fraction of counterparts
// that d would violate: h ∈ [−1, 0]. Using the fraction rather than the
// raw count keeps duplicate-heavy conflict groups (hundreds of identical
// counterparts) from drowning every other signal, while PaperFactors
// still counts one grounding per counterpart as Example 5 does.
//
// Joined counterparts are evaluated per class rather than per tuple (see
// counterpartClass): every count is an exact integer sum either way, so
// the soft factors are bit-identical to a per-tuple walk.
func (gr *grounder) groundRelaxedDC(rule *Rule) error {
	b := gr.db.Bounds[rule.Constraint]
	key := "rdc|" + rule.Name
	rc := relaxCtx{b: b, hr: rule.Head}

	// Split predicates into those referencing the head cell (evaluated
	// per candidate) and body predicates (evaluated on initial values).
	for i := range b.Preds {
		if predReferences(b, i, rc.hr) {
			rc.headPreds = append(rc.headPreds, i)
		} else {
			rc.bodyPreds = append(rc.bodyPreds, i)
		}
	}
	if b.TupleVars == 2 {
		rc.plan()
	}

	for vi, c := range gr.out.Cells {
		if c.Attr != rc.hr.Attr || !gr.cfg.wantFactors(c) {
			continue
		}
		v := int32(vi)
		dom := gr.g.Vars[v].Domain
		// Per-candidate violation counters, indexed by domain position,
		// staged in the arena (the old map-keyed counters churned map
		// operations on every counterpart).
		if cap(gr.ar.counts) >= len(dom) {
			gr.ar.counts = gr.ar.counts[:len(dom)]
		} else {
			gr.ar.counts = make([]int32, len(dom))
		}
		counts := gr.ar.counts
		for d := range counts {
			counts[d] = 0
		}
		rc.c, rc.dom, rc.counts = c, dom, counts
		var total int32
		scale := 1.0
		if b.TupleVars == 1 {
			total = gr.relaxSingle(&rc)
		} else {
			total, scale = gr.relaxPair(&rc)
		}
		if total == 0 {
			continue
		}
		h := make([]float64, len(dom))
		any := false
		for d := range dom {
			if cnt := counts[d]; cnt > 0 {
				h[d] = -scale * float64(cnt) / float64(total)
				any = true
				gr.out.Stats.PaperFactors += int64(cnt)
			}
		}
		if !any {
			continue
		}
		wid := gr.g.Weights.ID(key, gr.db.RelaxedDCPrior, false)
		gr.g.AddSoft(v, wid, h)
	}
	return nil
}

// Counterpart strategies of a pairwise relaxation, fixed per rule.
const (
	joinBody = iota // body equality join on initial values
	joinHead        // the head predicate itself is an equality
	joinScan        // no equality to index on: capped scan
)

// relaxCtx carries one relaxation's grounding state: the rule-level plan
// (predicate split, counterpart strategy, class index) and the current
// head cell. Passing it explicitly (rather than capturing it in closures)
// keeps the per-cell loop free of heap-allocated closures.
type relaxCtx struct {
	b         *dc.Bound
	hr        CellRef
	headPreds []int
	bodyPreds []int

	strategy int
	headAttr int   // joinBody: the head tuple's side of the join
	joinAttr int   // joinBody/joinHead: the counterpart's side of the join
	proj     []int // counterpart attributes a class is keyed by, joinAttr first
	classes  map[dataset.Value][]counterpartClass

	c      dataset.Cell
	dom    []int32
	counts []int32
}

// plan picks the counterpart strategy of a pairwise relaxation and the
// attributes its counterpart classes are keyed by: the join attribute,
// then every other attribute any predicate reads from the counterpart's
// tuple variable. Two counterparts agreeing on all of them are
// indistinguishable to every predicate.
func (rc *relaxCtx) plan() {
	rc.strategy = joinScan
	if pi, headAttr, joinAttr := bodyEqJoin(rc.b, rc.hr, rc.bodyPreds); pi >= 0 {
		rc.strategy, rc.headAttr, rc.joinAttr = joinBody, headAttr, joinAttr
	} else if pi, joinAttr := headEqJoin(rc.b, rc.hr, rc.headPreds); pi >= 0 {
		rc.strategy, rc.joinAttr = joinHead, joinAttr
	} else {
		return
	}
	cv := 1 - rc.hr.TupleVar
	rc.proj = []int{rc.joinAttr}
	for i := range rc.b.Preds {
		p := &rc.b.Preds[i]
		if p.LeftTuple == cv && !slices.Contains(rc.proj, p.LeftAttr) {
			rc.proj = append(rc.proj, p.LeftAttr)
		}
		if !p.RightIsConst && p.RightTuple == cv && !slices.Contains(rc.proj, p.RightAttr) {
			rc.proj = append(rc.proj, p.RightAttr)
		}
	}
	slices.Sort(rc.proj[1:])
}

// tups returns the (t1, t2) pair with the head tuple in its role.
func (rc *relaxCtx) tups(t2 int) [2]int {
	if rc.hr.TupleVar == 0 {
		return [2]int{rc.c.Tuple, t2}
	}
	return [2]int{t2, rc.c.Tuple}
}

// relaxSingle handles single-tuple constraints: candidates completing the
// violation with the tuple's own initial values get one negative
// grounding. It returns the number of counterpart groundings (1 when the
// body holds).
func (gr *grounder) relaxSingle(rc *relaxCtx) int32 {
	tups := [2]int{rc.c.Tuple, -1}
	for _, i := range rc.bodyPreds {
		if !rc.b.HoldsPred(i, tups[0], tups[1]) {
			return 0
		}
	}
	for d, label := range rc.dom {
		ok := true
		for _, i := range rc.headPreds {
			if !gr.predHyp(rc.b, i, tups, rc.hr, label) {
				ok = false
				break
			}
		}
		if ok {
			rc.counts[d]++
		}
	}
	return 1
}

// relaxPair handles pairwise constraints: counterpart tuples are found via
// a body equality join when one exists, else via an equality predicate on
// the head itself, else by a (capped) scan. It returns the number of
// counterparts whose body predicates held (the grounding denominator) and
// a trust scale: when the conflict context is anchored on a cell that is
// itself noisy (the body-join cell of the head tuple), the testimony is
// halved — the violation may be resolvable by repairing that cell instead,
// the multi-cell blind spot Section 5.2 acknowledges.
//
// Both joins walk counterpart classes. The head tuple is never its own
// counterpart; when it falls inside a walked class, one evaluation of it
// with weight −1 takes it back out.
func (gr *grounder) relaxPair(rc *relaxCtx) (int32, float64) {
	ds := gr.db.DS
	var total int32
	self := rc.c.Tuple
	if rc.strategy != joinScan && rc.classes == nil {
		rc.classes = gr.counterpartClasses(rc.proj)
	}
	switch rc.strategy {
	case joinBody:
		probe := ds.Get(self, rc.headAttr)
		if probe == dataset.Null {
			return 0, 1
		}
		scale := 1.0
		// The discount applies only when the join cell has an actual
		// alternative: a flagged cell with a singleton domain cannot be
		// the repair that resolves the violation.
		if jv := gr.queryVarOf(dataset.Cell{Tuple: self, Attr: rc.headAttr}); jv >= 0 && len(gr.g.Vars[jv].Domain) >= 2 {
			scale = 0.5
		}
		for _, cl := range rc.classes[probe] {
			if gr.checkClass(rc, cl.rep, cl.n) {
				total += cl.n
			}
		}
		if ds.Get(self, rc.joinAttr) == probe && gr.checkClass(rc, self, -1) {
			total--
		}
		return total, scale
	case joinHead:
		// Candidates index directly into the counterpart side; every
		// join-matched counterpart enters the denominator. Domain labels
		// are distinct, so the per-label buckets are disjoint.
		own := ds.Get(self, rc.joinAttr)
		ownMatched := false
		for _, label := range rc.dom {
			for _, cl := range rc.classes[dataset.Value(label)] {
				total += cl.n
				gr.checkClass(rc, cl.rep, cl.n)
			}
			if dataset.Value(label) == own {
				ownMatched = true
			}
		}
		if ownMatched {
			total--
			gr.checkClass(rc, self, -1)
		}
		return total, 1
	}
	// Scan.
	n := ds.NumTuples()
	cap := gr.cfg.MaxScanCounterparts
	cnt := 0
	for t2 := 0; t2 < n; t2++ {
		if t2 == self {
			continue
		}
		if gr.checkClass(rc, t2, 1) {
			total++
		}
		cnt++
		if cap > 0 && cnt >= cap {
			break
		}
	}
	return total, 1
}

// checkClass evaluates the counterpart rep standing for n tuples with its
// initial values on every attribute the constraint reads from the
// counterpart side, adds n to the count of each candidate the class would
// violate, and reports whether its body predicates held. The caller
// decides what enters the fraction denominator: for a body-equality join
// the relevant counterparts are the body-passers (the conflict context),
// while for a head-equality join every join-matched counterpart is
// relevant — otherwise a candidate with a single conflicting counterpart
// would always score the full −1.
func (gr *grounder) checkClass(rc *relaxCtx, rep int, n int32) bool {
	tups := rc.tups(rep)
	if n > 0 {
		gr.out.Stats.PairsChecked++
	}
	for _, i := range rc.bodyPreds {
		if !rc.b.HoldsPred(i, tups[0], tups[1]) {
			return false
		}
	}
	for d, label := range rc.dom {
		ok := true
		for _, i := range rc.headPreds {
			if !gr.predHyp(rc.b, i, tups, rc.hr, label) {
				ok = false
				break
			}
		}
		if ok {
			rc.counts[d] += n
		}
	}
	return true
}

// bodyEqJoin finds a body equality predicate across tuple variables and
// returns its index plus the head-side and counterpart-side attributes.
func bodyEqJoin(b *dc.Bound, hr CellRef, bodyPreds []int) (pi, headAttr, otherAttr int) {
	for _, i := range bodyPreds {
		p := &b.Preds[i]
		if p.Op != dc.Eq || p.RightIsConst || p.LeftTuple == p.RightTuple {
			continue
		}
		if p.LeftTuple == hr.TupleVar {
			return i, p.LeftAttr, p.RightAttr
		}
		return i, p.RightAttr, p.LeftAttr
	}
	return -1, 0, 0
}

// headEqJoin finds an equality head predicate whose other side is a cell
// of the counterpart tuple, returning its index and that attribute.
func headEqJoin(b *dc.Bound, hr CellRef, headPreds []int) (pi, otherAttr int) {
	for _, i := range headPreds {
		p := &b.Preds[i]
		if p.Op != dc.Eq || p.RightIsConst || p.LeftTuple == p.RightTuple {
			continue
		}
		left := CellRef{TupleVar: p.LeftTuple, Attr: p.LeftAttr}
		right := CellRef{TupleVar: p.RightTuple, Attr: p.RightAttr}
		if left == hr {
			return i, p.RightAttr
		}
		if right == hr {
			return i, p.LeftAttr
		}
	}
	return -1, 0
}

// counterpartClasses returns the class index over attrs (join attribute
// first) from the database's SharedIndex, built once per run across all
// shards, or from a grounder-private one when the database carries none.
func (gr *grounder) counterpartClasses(attrs []int) map[dataset.Value][]counterpartClass {
	idx := gr.db.Shared
	if idx == nil {
		if gr.local == nil {
			gr.local = NewSharedIndex(gr.db.DS, nil)
		}
		idx = gr.local
	}
	return idx.classesOver(attrs)
}

// predReferences reports whether predicate i mentions the head cell
// reference.
func predReferences(b *dc.Bound, i int, hr CellRef) bool {
	p := &b.Preds[i]
	if p.LeftTuple == hr.TupleVar && p.LeftAttr == hr.Attr {
		return true
	}
	if !p.RightIsConst && p.RightTuple == hr.TupleVar && p.RightAttr == hr.Attr {
		return true
	}
	return false
}

// predHyp evaluates predicate i over the tuple pair with the head cell
// hypothetically set to label d (initial values everywhere else).
func (gr *grounder) predHyp(b *dc.Bound, i int, tups [2]int, hr CellRef, d int32) bool {
	p := &b.Preds[i]
	ds := gr.db.DS
	resolve := func(tupleVar, attr int) dataset.Value {
		if tupleVar == hr.TupleVar && attr == hr.Attr {
			return dataset.Value(d)
		}
		t := tups[tupleVar]
		if t < 0 {
			return dataset.Null
		}
		return ds.Get(t, attr)
	}
	lv := resolve(p.LeftTuple, p.LeftAttr)
	if lv == dataset.Null {
		return false
	}
	var rv dataset.Value
	var rstr string
	rightConst := false
	if p.RightIsConst {
		rv = p.ConstVal
		rstr = p.ConstStr
		rightConst = true
	} else {
		rv = resolve(p.RightTuple, p.RightAttr)
		if rv == dataset.Null {
			return false
		}
	}
	switch p.Op {
	case dc.Eq:
		return lv == rv
	case dc.Neq:
		return lv != rv
	}
	dict := ds.Dict()
	ls := dict.String(lv)
	if !rightConst {
		rstr = dict.String(rv)
	}
	return dc.Compare(p.Op, ls, rstr)
}
