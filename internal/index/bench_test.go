package index_test

import (
	"testing"

	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/harness"
	"github.com/aplusdb/aplus/internal/index"
)

// BenchmarkBuildEdgePartitioned measures one build of the paper's EPc
// view (Section V-D: the MoneyFlow 2-hop view with the banded amount
// predicate, partitioned on the neighbour's account type, sorted by its
// city) over the orkut preset with G_{8,2} labels and financial
// properties. The graph and the primary index are built once, outside the
// timer; every iteration evaluates the view predicate on every 2-path.
func BenchmarkBuildEdgePartitioned(b *testing.B) {
	cfg := gen.Orkut.WithLabels(8, 2)
	cfg.Financial = true
	cfg.Seed = 1
	s, err := index.NewStore(gen.Build(cfg), index.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	def := harness.EPcDef(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := index.BuildEdgePartitioned(s.Primary(), def)
		if err != nil {
			b.Fatal(err)
		}
		if ep.NumIndexedEdges() == 0 {
			b.Fatal("EPc indexed no 2-paths")
		}
	}
}
