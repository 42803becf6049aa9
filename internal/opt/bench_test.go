package opt

import (
	"fmt"
	"testing"

	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/workload"
)

// BenchmarkOptimizeCold is the plan-compile layer of a plan-cache miss:
// each iteration compiles a MagicRecs MR1 or MR2 text anchored at a
// distinct user (a1.ID = k) against one livejournal store (4.8k vertices,
// 68k edges), the shape the served workload sends. Parsing is outside the
// timed loop; the store is planned once before it, so ns/op is the
// steady-state cost of one compile against an already-planned store.
func BenchmarkOptimizeCold(b *testing.B) {
	cfg := gen.LiveJournal
	cfg.Time = true
	cfg.Seed = 1
	g := gen.Build(cfg)
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	alpha, ok := gen.PercentileInt(g, "time", 5)
	if !ok {
		b.Fatal("livejournal graph has no time property")
	}
	const users = 128
	qs := make([]*query.Graph, 0, 2*users)
	mr := workload.MR(alpha, 0)[:2]
	for k := 0; k < users; k++ {
		for _, m := range mr {
			q, err := query.Parse(m.Cypher + fmt.Sprintf(", a1.ID = %d", k))
			if err != nil {
				b.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	if _, err := Optimize(s, qs[0], ModeDefault); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(s, qs[i%len(qs)], ModeDefault); err != nil {
			b.Fatal(err)
		}
	}
}
