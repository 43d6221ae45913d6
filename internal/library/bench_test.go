package library

import (
	"testing"

	"svto/internal/cell"
	"svto/internal/tech"
)

// BenchmarkBuild measures a full characterization of the default 4-option
// library: every standard template, state and version.
func BenchmarkBuild(b *testing.B) {
	p := tech.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(p, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCell measures one cell's characterization.  NAND4 has the
// deepest stack, and nested bisection costs ~30^(k-1) device evaluations per
// k-deep stack, so it dominates BenchmarkBuild.
func BenchmarkBuildCell(b *testing.B) {
	p := tech.Default()
	for _, tpl := range []*cell.Template{cell.NAND(4)} {
		b.Run(tpl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCell(p, DefaultOptions(), tpl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
