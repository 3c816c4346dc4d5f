// Package pruning implements HoloClean's domain-pruning optimization
// (Section 5.1.1, Algorithm 2). Each noisy cell c gets a random variable
// T_c whose domain would by default be the full active domain of its
// attribute — which makes grounding combinatorially explosive. Algorithm 2
// instead admits as repair candidates only values v that co-occur with the
// values of c's sibling cells above a threshold τ:
//
//	Pr[v | v_c'] = #(v, v_c' together) / #v_c'  ≥  τ
//
// Raising τ trades recall for precision and scalability (Figures 3 and 4).
package pruning

import (
	"sort"

	"holoclean/internal/dataset"
	"holoclean/internal/stats"
)

// Domains maps each noisy cell to its pruned candidate set.
type Domains struct {
	Cells      []dataset.Cell    // noisy cells in deterministic order
	Candidates [][]dataset.Value // Candidates[i] for Cells[i], sorted, includes the initial value

	index map[dataset.Cell]int
}

// Config controls Algorithm 2.
type Config struct {
	// Tau is the co-occurrence probability threshold τ. The paper sweeps
	// {0.3, 0.5, 0.7, 0.9}.
	Tau float64
	// MaxCandidates caps each cell's domain (0 = unlimited). When the cap
	// binds, the highest-frequency candidates are kept. This bounds worst
	// cases where τ is tiny and an attribute has a huge active domain.
	MaxCandidates int
	// KeepInitial forces the observed value into the candidate set. The
	// minimality prior requires it; defaults to true in Compute.
	KeepInitial bool
	// FullDomain disables pruning: every cell may take any value from its
	// attribute's active domain (the strategy of [7, 12], used as the
	// no-pruning ablation).
	FullDomain bool
}

// NewDomains builds a Domains from parallel cell and candidate slices,
// wiring the cell index Compute would have built.
func NewDomains(cells []dataset.Cell, candidates [][]dataset.Value) *Domains {
	d := &Domains{Cells: cells, Candidates: candidates, index: make(map[dataset.Cell]int, len(cells))}
	for i, c := range cells {
		d.index[c] = i
	}
	return d
}

// cond is one conditioning context of Algorithm 2: target attribute a
// given sibling attribute g taking value vg.
type cond struct {
	a, g int
	vg   dataset.Value
}

// Compute runs Algorithm 2 for the given noisy cells. Each distinct
// context's candidate set is computed once per call and shared by every
// cell that sees it.
func Compute(ds *dataset.Dataset, st *stats.Stats, noisy []dataset.Cell, cfg Config) *Domains {
	d := &Domains{
		Cells:      noisy,
		Candidates: make([][]dataset.Value, len(noisy)),
		index:      make(map[dataset.Cell]int, len(noisy)),
	}
	activeDomains := make(map[int][]dataset.Value)
	domainOf := func(a int) []dataset.Value {
		if dom, ok := activeDomains[a]; ok {
			return dom
		}
		dom := ds.ActiveDomain(a)
		activeDomains[a] = dom
		return dom
	}
	above := make(map[cond][]dataset.Value)
	for i, c := range noisy {
		d.index[c] = i
		set := make(map[dataset.Value]struct{})
		if cfg.FullDomain {
			for _, v := range domainOf(c.Attr) {
				set[v] = struct{}{}
			}
		} else {
			// For each sibling cell c' of c, admit values of c's attribute
			// whose conditional probability given v_c' clears τ.
			for g := 0; g < ds.NumAttrs(); g++ {
				if g == c.Attr {
					continue
				}
				vg := ds.Get(c.Tuple, g)
				if vg == dataset.Null {
					continue
				}
				k := cond{c.Attr, g, vg}
				vs, ok := above[k]
				if !ok {
					vs = st.ValuesAbove(c.Attr, g, vg, cfg.Tau)
					above[k] = vs
				}
				for _, v := range vs {
					set[v] = struct{}{}
				}
			}
		}
		if init := ds.Get(c.Tuple, c.Attr); init != dataset.Null {
			set[init] = struct{}{}
		}
		cands := make([]dataset.Value, 0, len(set))
		for v := range set {
			cands = append(cands, v)
		}
		if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
			sort.Slice(cands, func(x, y int) bool {
				fx, fy := st.Freq(c.Attr, cands[x]), st.Freq(c.Attr, cands[y])
				if fx != fy {
					return fx > fy
				}
				return cands[x] < cands[y]
			})
			init := ds.Get(c.Tuple, c.Attr)
			kept := cands[:cfg.MaxCandidates]
			if init != dataset.Null && !contains(kept, init) {
				kept[len(kept)-1] = init
			}
			cands = kept
		}
		sort.Slice(cands, func(x, y int) bool { return cands[x] < cands[y] })
		d.Candidates[i] = cands
	}
	return d
}

func contains(vs []dataset.Value, v dataset.Value) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// Inject adds extra candidate values (e.g. suggestions from external
// dictionaries, which Example 3 admits into Domain) to a cell's domain.
// Unknown cells are ignored.
func (d *Domains) Inject(c dataset.Cell, v dataset.Value) {
	i, ok := d.index[c]
	if !ok {
		return
	}
	if contains(d.Candidates[i], v) {
		return
	}
	d.Candidates[i] = append(d.Candidates[i], v)
	sort.Slice(d.Candidates[i], func(x, y int) bool { return d.Candidates[i][x] < d.Candidates[i][y] })
}

// Of returns the candidate set of cell c, or nil when c is not a noisy cell.
func (d *Domains) Of(c dataset.Cell) []dataset.Value {
	if i, ok := d.index[c]; ok {
		return d.Candidates[i]
	}
	return nil
}

// Index returns the position of cell c in Cells, or -1.
func (d *Domains) Index(c dataset.Cell) int {
	if i, ok := d.index[c]; ok {
		return i
	}
	return -1
}

// TotalCandidates sums all candidate-set sizes — the number of Value?
// random-variable instantiations the grounder will create.
func (d *Domains) TotalCandidates() int {
	n := 0
	for _, cs := range d.Candidates {
		n += len(cs)
	}
	return n
}

// MaxDomain returns the largest candidate-set size.
func (d *Domains) MaxDomain() int {
	m := 0
	for _, cs := range d.Candidates {
		if len(cs) > m {
			m = len(cs)
		}
	}
	return m
}
