package spnet_test

import (
	"math/rand"
	"testing"

	"svto/internal/cell"
	"svto/internal/spnet"
	"svto/internal/tech"
)

// TestSolveMatchesTwoPassOnTemplates checks the one-pass Solve against the
// two-pass reference on every standard template's pull-up and pull-down in
// every state: every corner vector for networks of at most three devices,
// a seeded sample (plus all-fast and all-slow) for larger ones.
func TestSolveMatchesTwoPassOnTemplates(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewSource(17))
	corners4 := []tech.Corner{tech.FastCorner, tech.LowIsubCorner, tech.LowIgateCorner, tech.SlowCorner}
	const sampled = 6
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
				fast, slow := make([]tech.Corner, nDev), make([]tech.Corner, nDev)
				for i := range fast {
					fast[i], slow[i] = tech.FastCorner, tech.SlowCorner
				}
				vectors = append(vectors, fast, slow)
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
						t.Fatalf("%s up=%v state %d corners %v: %s", tpl.Name, up, s, corners, diff)
					}
				}
			}
		}
	}
}
