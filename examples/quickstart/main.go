// Quickstart: optimize a small combinational block's standby state and
// Vt/Tox cell-version assignment through the public pkg/svto facade, and
// report the leakage saving.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"

	"svto/pkg/svto"
)

// A 4-bit one-hot detector: onehot = exactly-one-bit-set(a,b,c,d).  The
// generic NAND/NOR/NOT gates are technology-mapped automatically.
//
//go:embed onehot4.bench
var onehot4 string

func main() {
	res, err := svto.Run(context.Background(), svto.Request{
		Design: svto.DesignSpec{Bench: onehot4, Name: "onehot4"},
		Search: svto.SearchSpec{
			Penalty: 0.10, // 10% delay budget
			// Reference point: expected leakage with no standby optimization.
			BaselineVectors: 5000,
			Seed:            1,
		},
	}, svto.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("circuit: %s (%d inputs, %d gates)\n", res.Design, len(res.Inputs), len(res.Gates))
	fmt.Printf("fastest implementation delay: %.0f ps; all-slow: %.0f ps\n", res.DminPS, res.DmaxPS)
	fmt.Printf("unoptimized average leakage: %.1f nA\n", res.BaselineNA)
	fmt.Printf("optimized standby leakage:   %.1f nA  (%.1fX lower)\n", res.LeakNA, res.ReductionX())
	fmt.Printf("delay after assignment:      %.0f ps (budget %.0f ps)\n", res.DelayPS, res.BudgetPS)

	fmt.Print("sleep vector: ")
	for i, in := range res.Inputs {
		v := 0
		if res.SleepVector[i] {
			v = 1
		}
		fmt.Printf("%s=%d ", in, v)
	}
	fmt.Println()

	fmt.Println("gate assignments:")
	for _, g := range res.Gates {
		fmt.Printf("  %-8s -> %-10s (%s, %.1f nA)\n", g.Gate, g.Version, g.Kind, g.LeakNA)
	}
}
