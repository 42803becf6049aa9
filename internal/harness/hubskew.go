package harness

import (
	"fmt"
	"time"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/workload"
)

// hubMorselSize is the root morsel size for the hub-skew experiment: small
// enough that the root scan yields more morsels than workers, so the only
// imbalance left is the super-hub's adjacency list itself.
const hubMorselSize = 256

// HubSkew is the parity gate at skew: a Zipfian background graph plus one
// deliberate super-hub (vertex 0 with tens of thousands of out-edges) under
// a 2-hop path count. Root-scan morsel partitioning strands the hub's
// fan-out on whichever worker draws its morsel, the most uneven split the
// pool meets. Two configurations run: serial ("1w") and parallel ("Nw").
// Counts and i-cost must agree bit-identically (hard-gated here and by the
// stored baseline); the speedup is the advisory measurement.
func HubSkew(o Options) []Row {
	w := o.out()
	header(w, "Hub skew: morsel parallelism on a super-hub fan-out")
	workers := o.Workers
	if workers <= 1 {
		workers = 8
	}
	// A 2-hop path puts the super-hub's fan-out exactly at the plan's first
	// EXTEND with the trailing hop folded; the background graph is kept
	// sparse so the hub's morsel holds the overwhelming share of the serial
	// i-cost — the worst case for root-only partitioning.
	cfg := gen.Config{Name: "Hub", NumVertices: 4000, AvgDegree: 2, HubDegree: 200000, Seed: 7}
	cfg = scaled(cfg, o.scale())
	cfg.HubDegree = int(float64(cfg.HubDegree) * o.scale())
	if min := 4 * hubMorselSize; cfg.HubDegree < min {
		cfg.HubDegree = min
	}
	g := gen.Build(cfg)
	s := buildStore(g, ConfigD())
	q := workload.Query{Name: "HUB2", Cypher: "MATCH a1-[e1]->a2-[e2]->a3"}

	runs := []struct {
		name string
		opts exec.ParallelOptions
	}{
		{"1w", exec.ParallelOptions{Workers: 1, MorselSize: hubMorselSize}},
		{fmt.Sprintf("%dw", workers), exec.ParallelOptions{Workers: workers, MorselSize: hubMorselSize}},
	}
	var rows []Row
	counts := map[string]map[string]int64{}
	var base Row
	for i, rc := range runs {
		secs, n, icost, err := measureOpts(s, q, rc.opts)
		if err != nil {
			panic(err)
		}
		counts[rc.name] = map[string]int64{q.Name: n}
		r := Row{
			Table: "hubskew", Dataset: cfg.Name, Config: rc.name, Query: q.Name,
			Seconds: secs, Count: n, ICost: icost,
		}
		rows = append(rows, r)
		if i == 0 {
			base = r
			printRow(w, r, nil)
		} else {
			printRow(w, r, &base)
		}
	}
	if o.Verify {
		verifyCounts("hubskew", counts)
		verifyICosts(rows)
	}
	return rows
}

// measureOpts is measure with full control of the parallel options (worker
// count, morsel size); Workers <= 1 takes the pool's serial fallback.
func measureOpts(s *index.Store, q workload.Query, opts exec.ParallelOptions) (float64, int64, int64, error) {
	qg, err := query.Parse(q.Cypher)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", q.Name, err)
	}
	plan, err := opt.Optimize(s, qg, opt.ModeDefault)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", q.Name, err)
	}
	rt := exec.NewRuntime(s)
	start := time.Now()
	n, err := plan.CountParallel(rt, opts)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", q.Name, err)
	}
	return time.Since(start).Seconds(), n, rt.ICost, nil
}
