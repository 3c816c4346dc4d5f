package ddlog

import (
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/pruning"
)

// TestSharedIndexRebind pins the refresh contract: after a delta, indexes
// of attributes named dirty are rebuilt against the new dataset state,
// while untouched attributes keep their cached (still-valid) indexes.
func TestSharedIndexRebind(t *testing.T) {
	ds := dataset.New([]string{"A", "B"})
	ds.Append([]string{"x", "1"})
	ds.Append([]string{"y", "2"})
	ds.Append([]string{"x", "3"})
	idx := NewSharedIndex(ds, nil)

	x, _ := ds.Dict().Lookup("x")
	if got := idx.classesOver([]int{0})[x]; len(got) != 1 || got[0].n != 2 {
		t.Fatalf("classes for x = %v, want one class of two tuples", got)
	}
	if got := idx.classesOver([]int{0, 1})[x]; len(got) != 2 {
		t.Fatalf("classes for x projected on B = %v, want two singletons", got)
	}
	before := idx.Candidates(1)

	// Mutate attribute B of tuples 1 and 2 and rebind with only B dirty.
	ds.SetString(1, 1, "9")
	ds.SetString(2, 1, "1")
	idx.Rebind(ds, nil, map[int]bool{1: true})

	after := idx.Candidates(1)
	nine, _ := ds.Dict().Lookup("9")
	if len(after[int32(nine)]) != 1 || after[int32(nine)][0] != 1 {
		t.Errorf("rebuilt bucket for 9 = %v, want [1]", after[int32(nine)])
	}
	two, _ := ds.Dict().Lookup("2")
	if len(after[int32(two)]) != 0 {
		t.Errorf("stale bucket for 2 survived the rebind: %v", after[int32(two)])
	}
	_ = before
	// Attribute A was clean: the class index reading only A survives.
	if got := idx.classesOver([]int{0})[x]; len(got) != 1 || got[0].n != 2 {
		t.Errorf("clean attribute's classes lost after rebind: %v", got)
	}
	// The index projecting B must be rebuilt: tuples 0 and 2 now agree
	// on B, so the x group is one class of two.
	if got := idx.classesOver([]int{0, 1})[x]; len(got) != 1 || got[0].n != 2 {
		t.Errorf("classes projecting dirty B = %v, want one class of two", got)
	}

	// Rebinding with fresh domains changes candidate buckets on demand.
	noisy := []dataset.Cell{{Tuple: 0, Attr: 0}}
	y, _ := ds.Dict().Lookup("y")
	doms := pruning.NewDomains(noisy, [][]dataset.Value{{x, y}})
	idx.Rebind(ds, doms, map[int]bool{0: true})
	bucketY := idx.Candidates(0)[int32(y)]
	if len(bucketY) != 2 {
		t.Errorf("candidate bucket for y = %v, want tuples 0 (candidate) and 1 (initial)", bucketY)
	}
}
