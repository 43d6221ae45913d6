package spnet_test

import (
	"math/rand"
	"testing"

	"svto/internal/cell"
	"svto/internal/spnet"
	"svto/internal/tech"
)

// TestSolveMatchesTwoPassOnTemplates checks Solve against the nested-
// bisection reference on every standard template's pull-up and pull-down in
// every state, under both technologies: every corner vector for networks of
// at most three devices; the four uniform vectors and one seeded mixed one
// for larger networks.
func TestSolveMatchesTwoPassOnTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corners4 := []tech.Corner{tech.FastCorner, tech.LowIsubCorner, tech.LowIgateCorner, tech.SlowCorner}
	const sampled = 1
	for _, p := range []*tech.Params{tech.Default(), tech.Nitrided()} {
		for _, tpl := range cell.StandardTemplates() {
			for _, up := range []bool{true, false} {
				n := tpl.Network(up)
				nDev := len(n.Devices)
				var vectors [][]tech.Corner
				if nDev <= 3 {
					total := 1
					for i := 0; i < nDev; i++ {
						total *= len(corners4)
					}
					for k := 0; k < total; k++ {
						v := make([]tech.Corner, nDev)
						for i, rest := 0, k; i < nDev; i, rest = i+1, rest/len(corners4) {
							v[i] = corners4[rest%len(corners4)]
						}
						vectors = append(vectors, v)
					}
				} else {
					for _, c := range corners4 {
						v := make([]tech.Corner, nDev)
						for i := range v {
							v[i] = c
						}
						vectors = append(vectors, v)
					}
					for k := 0; k < sampled; k++ {
						v := make([]tech.Corner, nDev)
						for i := range v {
							v[i] = corners4[rng.Intn(len(corners4))]
						}
						vectors = append(vectors, v)
					}
				}
				for s := uint(0); s < uint(tpl.NumStates()); s++ {
					gates := make([]float64, tpl.NumInputs)
					for i := range gates {
						if s>>uint(i)&1 == 1 {
							gates[i] = p.Vdd
						}
					}
					vout := 0.0
					if tpl.Eval(s) {
						vout = p.Vdd
					}
					vtop, vbot := vout, 0.0
					if up {
						vtop, vbot = p.Vdd, vout
					}
					for _, corners := range vectors {
						sol, err := n.Solve(p, corners, gates, vtop, vbot)
						if err != nil {
							t.Fatal(err)
						}
						if diff := spnet.SameSolution(sol, spnet.TwoPassSolve(n, p, corners, gates, vtop, vbot)); diff != "" {
							t.Fatalf("%s %s up=%v state %d corners %v: %s", p.Name, tpl.Name, up, s, corners, diff)
						}
					}
				}
			}
		}
	}
}
