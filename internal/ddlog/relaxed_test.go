package ddlog

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/pruning"
)

// relaxedFixture is a dataset built to hit every branch of relaxed-DC
// counterpart grounding: duplicate-heavy join groups (classes of several
// tuples), Null join and projected cells, cross-attribute joins, a
// constant predicate, ordering predicates, a constraint without any
// equality (the scan), and one whose predicates hold on a tuple paired
// with itself.
func relaxedFixture(t *testing.T) (*dataset.Dataset, []*dc.Bound, *pruning.Domains) {
	t.Helper()
	ds := dataset.New([]string{"Zip", "AltZip", "City", "State", "Score"})
	for _, r := range [][]string{
		{"60601", "60601", "Chicago", "IL", "10"},
		{"60601", "60602", "Chicago", "IL", "20"},
		{"60601", "60601", "Chicgo", "IL", "10"},
		{"60601", "", "Chicago", "IL", "30"},
		{"60601", "60601", "Chicago", "", "10"},
		{"60602", "60601", "Evanston", "IL", "15"},
		{"60602", "60602", "Chicago", "IL", "15"},
		{"", "60602", "Chicago", "IL", "5"},
		{"60602", "60602", "Evanston", "WI", "25"},
		{"60601", "60601", "Chicago", "IL", "10"},
		{"60601", "60601", "", "IL", "10"},
		{"60603", "60603", "Urbana", "IL", "40"},
		{"60601", "60601", "Chicago", "IL", "9"},
		{"60602", "60601", "Evanston", "IL", "15"},
	} {
		ds.Append(r)
	}
	ds.Dict().Intern("IL") // constraint constants are interned before binding
	cs := []*dc.Constraint{
		dc.MustParse("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)"),
		dc.MustParse("t1&t2&EQ(t1.Zip,t2.AltZip)&IQ(t1.City,t2.City)"),
		dc.MustParse(`t1&t2&EQ(t1.Zip,t2.Zip)&EQ(t2.State,"IL")&IQ(t1.City,t2.City)`),
		dc.MustParse("t1&t2&EQ(t1.Zip,t2.Zip)&LT(t1.Score,t2.Score)&IQ(t1.City,t2.City)"),
		dc.MustParse("t1&t2&GT(t1.Score,t2.Score)&IQ(t1.State,t2.State)"),
		// Holds on the pair (t, t): only the removal of the head tuple
		// from its own class keeps it from counting itself.
		dc.MustParse("t1&t2&EQ(t1.Zip,t2.AltZip)&IQ(t1.City,t2.State)"),
	}
	bounds, err := dc.BindAll(cs, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-key cell of most tuples is a query variable. Odd tuples'
	// Zip and AltZip domains leave out the observed value, so a
	// head-equality join sees the head's own value both among its
	// candidates and absent from them.
	var cells []dataset.Cell
	var cands [][]dataset.Value
	for tup := 0; tup < ds.NumTuples(); tup++ {
		if tup%5 == 4 {
			continue // some tuples stay clean: constants to their counterparts
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			own := ds.Get(tup, a)
			var dom []dataset.Value
			for _, v := range ds.ActiveDomain(a) {
				if v == own && tup%2 == 1 && a <= 1 {
					continue
				}
				dom = append(dom, v)
			}
			slices.Sort(dom)
			cells = append(cells, dataset.Cell{Tuple: tup, Attr: a})
			cands = append(cands, dom)
		}
	}
	return ds, bounds, pruning.NewDomains(cells, cands)
}

// refBranches counts which counterpart branches the reference walked.
type refBranches map[string]int

// refRelaxed is the per-counterpart relaxed-DC grounding that counterpart
// classes replaced, kept as the oracle: every counterpart tuple is found
// by a scan of the join attribute and evaluated on its own. It returns
// each head variable's h vector and the rule's PaperFactors.
func refRelaxed(db *Database, g *Grounded, rule *Rule, maxScan int, hit refBranches) (map[int32][]float64, int64) {
	ds := db.DS
	b := db.Bounds[rule.Constraint]
	hr := rule.Head
	gr := &grounder{db: db, g: g.Graph, out: g}
	var headPreds, bodyPreds []int
	for i := range b.Preds {
		if predReferences(b, i, hr) {
			headPreds = append(headPreds, i)
		} else {
			bodyPreds = append(bodyPreds, i)
		}
	}
	out := make(map[int32][]float64)
	var paper int64
	for vi, c := range g.Cells {
		if c.Attr != hr.Attr {
			continue
		}
		dom := g.Graph.Vars[vi].Domain
		counts := make([]int32, len(dom))
		tups := func(t2 int) [2]int {
			if hr.TupleVar == 0 {
				return [2]int{c.Tuple, t2}
			}
			return [2]int{t2, c.Tuple}
		}
		check := func(t2 int) bool {
			if t2 == c.Tuple {
				return false
			}
			tp := tups(t2)
			for _, i := range bodyPreds {
				if !b.HoldsPred(i, tp[0], tp[1]) {
					return false
				}
			}
			for d, label := range dom {
				ok := true
				for _, i := range headPreds {
					if !gr.predHyp(b, i, tp, hr, label) {
						ok = false
						break
					}
				}
				if ok {
					counts[d]++
				}
			}
			return true
		}
		var total int32
		scale := 1.0
		if pi, headAttr, otherAttr := bodyEqJoin(b, hr, bodyPreds); pi >= 0 {
			probe := ds.Get(c.Tuple, headAttr)
			if probe == dataset.Null {
				hit["body-null-probe"]++
				continue
			}
			if jv := gr.queryVarOf(dataset.Cell{Tuple: c.Tuple, Attr: headAttr}); jv >= 0 && len(g.Graph.Vars[jv].Domain) >= 2 {
				scale = 0.5
			}
			if ds.Get(c.Tuple, otherAttr) == probe {
				hit["body-head-in-own-class"]++
			}
			if headAttr != otherAttr {
				hit["body-cross-attr"]++
			}
			for t2 := 0; t2 < ds.NumTuples(); t2++ {
				if ds.Get(t2, otherAttr) == probe && check(t2) {
					total++
				}
			}
		} else if pi, otherAttr := headEqJoin(b, hr, headPreds); pi >= 0 {
			own := ds.Get(c.Tuple, otherAttr)
			ownIn := false
			seen := make(map[int]bool)
			for _, label := range dom {
				ownIn = ownIn || dataset.Value(label) == own
				for t2 := 0; t2 < ds.NumTuples(); t2++ {
					if ds.Get(t2, otherAttr) == dataset.Value(label) && !seen[t2] {
						seen[t2] = true
						if t2 != c.Tuple {
							total++
						}
						check(t2)
					}
				}
			}
			if ownIn {
				hit["head-own-value-candidate"]++
			} else {
				hit["head-own-value-absent"]++
			}
		} else {
			hit["scan"]++
			cnt := 0
			for t2 := 0; t2 < ds.NumTuples(); t2++ {
				if t2 == c.Tuple {
					continue
				}
				if check(t2) {
					total++
				}
				cnt++
				if maxScan > 0 && cnt >= maxScan {
					hit["scan-capped"]++
					break
				}
			}
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
				paper += int64(cnt)
			}
		}
		if any {
			out[int32(vi)] = h
		}
	}
	return out, paper
}

// TestRelaxedClassesMatchPerCounterpart pins counterpart classes to the
// per-tuple walk they replaced: on every relaxation of every fixture
// constraint, with and without a SharedIndex and with and without a scan
// cap, the grounded soft factors are bit-identical and PaperFactors
// equal. The fixture must reach every counterpart branch.
func TestRelaxedClassesMatchPerCounterpart(t *testing.T) {
	ds, bounds, domains := relaxedFixture(t)
	hit := refBranches{}
	for ci, b := range bounds {
		for _, ref := range CellRefs(b) {
			rule := &Rule{Kind: RelaxedDCFactors, Name: fmt.Sprintf("c%d@t%d.a%d", ci, ref.TupleVar+1, ref.Attr), Constraint: ci, Head: ref}
			prog := &Program{}
			prog.Add(&Rule{Kind: RandomVariables})
			prog.Add(rule)
			for _, maxScan := range []int{0, 3} {
				for _, shared := range []bool{false, true} {
					label := fmt.Sprintf("%s maxScan=%d shared=%v", rule.Name, maxScan, shared)
					db := &Database{DS: ds, Bounds: bounds, Domains: domains, RelaxedDCPrior: 1}
					if shared {
						db.Shared = NewSharedIndex(ds, domains)
					}
					g, err := Ground(db, prog, Config{MaxScanCounterparts: maxScan})
					if err != nil {
						t.Fatal(err)
					}
					want, wantPaper := refRelaxed(db, g, rule, maxScan, hit)
					if g.Stats.PaperFactors != wantPaper {
						t.Errorf("%s: PaperFactors = %d, want %d", label, g.Stats.PaperFactors, wantPaper)
					}
					if len(g.Graph.Softs) != len(want) {
						t.Errorf("%s: %d soft factors, want %d", label, len(g.Graph.Softs), len(want))
					}
					for _, sf := range g.Graph.Softs {
						wh, ok := want[sf.Var]
						if !ok || len(wh) != len(sf.H) {
							t.Errorf("%s: var %d: unexpected soft factor %v", label, sf.Var, sf.H)
							continue
						}
						for d := range wh {
							if math.Float64bits(wh[d]) != math.Float64bits(sf.H[d]) {
								t.Errorf("%s: var %d: h = %v, want %v", label, sf.Var, sf.H, wh)
								break
							}
						}
					}
				}
			}
		}
	}
	for _, br := range []string{"body-null-probe", "body-head-in-own-class", "body-cross-attr",
		"head-own-value-candidate", "head-own-value-absent", "scan", "scan-capped"} {
		if hit[br] == 0 {
			t.Errorf("fixture never reached branch %q", br)
		}
	}
}

// TestRelaxedClassesCollapseJoinGroups pins the point of the classes: on
// a join group of many identical counterparts, grounding evaluates one
// class per distinct context instead of one pair per tuple.
func TestRelaxedClassesCollapseJoinGroups(t *testing.T) {
	ds := dataset.New([]string{"Zip", "City"})
	for i := 0; i < 200; i++ {
		city := "Chicago"
		if i%50 == 0 {
			city = "Chicgo"
		}
		ds.Append([]string{"60601", city})
	}
	bounds, err := dc.BindAll(dc.FD("fd", []string{"Zip"}, []string{"City"}), ds)
	if err != nil {
		t.Fatal(err)
	}
	chicago, _ := ds.Dict().Lookup("Chicago")
	chicgo, _ := ds.Dict().Lookup("Chicgo")
	var cells []dataset.Cell
	var cands [][]dataset.Value
	for tup := 0; tup < ds.NumTuples(); tup += 50 {
		cells = append(cells, dataset.Cell{Tuple: tup, Attr: 1})
		cands = append(cands, []dataset.Value{chicago, chicgo})
	}
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: RelaxedDCFactors, Name: "fd@city", Head: CellRef{TupleVar: 0, Attr: 1}})
	g, err := Ground(&Database{DS: ds, Bounds: bounds, Domains: pruning.NewDomains(cells, cands), RelaxedDCPrior: 1}, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Four heads, each walking the two classes (Chicago ×196, Chicgo ×4).
	if got := g.Stats.PairsChecked; got != 8 {
		t.Errorf("PairsChecked = %d, want 8 (two classes per head)", got)
	}
	if len(g.Graph.Softs) != 4 {
		t.Fatalf("soft factors = %d, want 4", len(g.Graph.Softs))
	}
	// A head "Chicgo" has 3 Chicgo and 196 Chicago counterparts: the
	// candidate Chicgo conflicts with 196 of 199.
	h := g.Graph.Softs[0].H
	if want := -196.0 / 199.0; h[1] != want {
		t.Errorf("h[Chicgo] = %v, want %v", h[1], want)
	}
}

// TestSharedClassesConcurrent grounds one relaxation from several
// goroutines sharing one SharedIndex, as the shard workers do: the
// classes are built once and every grounding sees the same model.
func TestSharedClassesConcurrent(t *testing.T) {
	ds, bounds, domains := relaxedFixture(t)
	shared := NewSharedIndex(ds, domains)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	for ci, b := range bounds {
		for _, ref := range CellRefs(b) {
			prog.Add(&Rule{Kind: RelaxedDCFactors, Name: fmt.Sprintf("c%d@t%d.a%d", ci, ref.TupleVar+1, ref.Attr), Constraint: ci, Head: ref})
		}
	}
	const workers = 4
	papers := make([]int64, workers)
	softs := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			db := &Database{DS: ds, Bounds: bounds, Domains: domains, RelaxedDCPrior: 1, Shared: shared}
			g, err := Ground(db, prog, Config{})
			if err != nil {
				errs[w] = err
				return
			}
			papers[w], softs[w] = g.Stats.PaperFactors, len(g.Graph.Softs)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if papers[w] != papers[0] || softs[w] != softs[0] {
			t.Errorf("worker %d grounded %d paper factors / %d softs, worker 0 %d / %d", w, papers[w], softs[w], papers[0], softs[0])
		}
	}
	if papers[0] == 0 {
		t.Fatal("concurrent grounding produced no relaxed factors")
	}
}
