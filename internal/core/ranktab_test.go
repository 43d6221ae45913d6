package core

import (
	"sort"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
)

// The precomputed rankTab must order candidates exactly as the per-visit
// stable argsort the descents previously performed.
func TestRankTabMatchesFreshSort(t *testing.T) {
	circ, err := gen.RandomLogic("ranktab", 37, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjTotal, ObjIsubOnly} {
		p := newProblem(t, circ, library.DefaultOptions(), obj)
		for gi := range p.CC.Gates {
			cell := p.Timer.Cells[gi]
			for s := 0; s < cell.Template.NumStates(); s++ {
				choices := cell.Choices[s]
				idx := make([]int, len(choices))
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool {
					return p.objOf(&choices[idx[a]]) < p.objOf(&choices[idx[b]])
				})
				got := p.rankTab[gi][s]
				if len(got) != len(idx) {
					t.Fatalf("gate %d state %d: rank length %d != %d", gi, s, len(got), len(idx))
				}
				for i := range idx {
					if int(got[i]) != idx[i] {
						t.Fatalf("obj %v gate %d state %d: rankTab %v != fresh stable sort %v", obj, gi, s, got, idx)
					}
				}
			}
		}
	}
}
