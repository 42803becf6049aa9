package exec_test

import (
	"testing"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/workload"
)

// BenchmarkCountParallel is the worker-pool layer of a parallel read: a
// warm 2-worker CountParallel of MagicRecs MR1 and MR2 anchored at
// a1.ID < 100 over one livejournal store with edge times (4.8k vertices,
// 68k edges, seed 1) at the default morsel size. Parsing and planning are
// outside the timed loop and one untimed run warms the store, so ns/op and
// allocs/op are the steady-state cost of one pool execution: per-run worker
// state plus the morsels themselves.
func BenchmarkCountParallel(b *testing.B) {
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
	for _, m := range workload.MR(alpha, 100)[:2] {
		q, err := query.Parse(m.Cypher)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := opt.Optimize(s, q, opt.ModeDefault)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			rt := exec.NewRuntime(s)
			o := exec.ParallelOptions{Workers: 2}
			want, err := plan.CountParallel(rt, o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := plan.CountParallel(rt, o); err != nil || n != want {
					b.Fatalf("CountParallel = %d, %v; want %d", n, err, want)
				}
			}
		})
	}
}
