// Full flow: everything between RTL-ish gates and a standby-ready netlist,
// through the public pkg/svto facade.
//
//	generic netlist -> technology mapping -> AOI/OAI fusion ->
//	simultaneous state+Vt+Tox optimization -> leakage report ->
//	standby-gated netlist + Liberty library export
//
//	go run ./examples/fullflow
package main

import (
	"context"
	_ "embed"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"svto/pkg/svto"
)

// An 8-bit comparator block written in generic gates (as it would come out
// of RTL elaboration).
//
//go:embed cmp8.bench
var cmp8 string

func main() {
	// 1-3. Map, fuse onto complex cells, and optimize sleep state plus
	// Vt/Tox versions with three refinement passes under a 5% budget.
	res, err := svto.Run(context.Background(), svto.Request{
		Design: svto.DesignSpec{Bench: cmp8, Name: "cmp8", Fuse: true},
		Search: svto.SearchSpec{
			Penalty:         0.05,
			RefinePasses:    3,
			BaselineVectors: 5000,
			Seed:            1,
		},
	}, svto.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design:      %s (%d inputs, %d fused gates)\n", res.Design, len(res.Inputs), len(res.Gates))
	fmt.Printf("standby:     %.2f µA -> %.2f µA (%.1fX) at %.1f%% delay cost\n",
		res.BaselineNA/1000, res.LeakNA/1000, res.ReductionX(), (res.DelayPS/res.DminPS-1)*100)

	// 4. Leakage report.
	report, err := res.Report(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(report)

	// 5. Emit the implementation artifacts.
	dir, err := os.MkdirTemp("", "svto-flow-")
	if err != nil {
		log.Fatal(err)
	}
	writeFile(filepath.Join(dir, "cmp8_standby.bench"), res.WriteStandbyBench)
	writeFile(filepath.Join(dir, "cmp8.v"), res.WriteVerilog)
	writeFile(filepath.Join(dir, "svto.lib"), res.WriteLiberty)
	fmt.Printf("\nartifacts in %s:\n", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %8d bytes\n", e.Name(), info.Size())
	}
}

func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
