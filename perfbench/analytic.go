package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/gen"
)

// analyticWorkers runs analytic queries on the serial path. On the two-vCPU
// measurement host the second core is often shared: over ten seeds with the
// default two workers, read_p50_ms spread 24% (interquartile range over
// median) and one run read 5.6 reads/s against 3.2–4.3 for the rest; on
// the serial path the spread was 12%.
const analyticWorkers = 1

// analyticData is analyticGraph as the public generator's config.
var analyticData = aplus.DatasetConfig{
	Preset: "orkut", VertexLabels: 8, EdgeLabels: 2, Financial: true, Seed: datasetSeed,
}

// runAnalytic: one client cycles SQ1–SQ12 and MF1–MF5, in a fresh seeded
// order each cycle, against an embedded database with D, VPc and EPc.
// Every count must equal the count of a views-free database on the serial
// path: views change cost, never results.
func runAnalytic(c config, res *result) error {
	ctx := context.Background()
	ref, err := aplus.Generate(analyticData)
	if err != nil {
		return err
	}
	defer ref.Close()
	ref.Parallelism = 1
	qs := analyticQueries(ref.Stats().NumVertices)
	want := make([]int64, len(qs))
	for i, q := range qs {
		n, err := ref.CountCtx(ctx, q.Cypher)
		res.op(err)
		if err != nil {
			return fmt.Errorf("reference count %s: %w", q.Name, err)
		}
		want[i] = n
	}
	if !c.trace {
		ref.Close()
		ref = nil
		release()
	}

	// A set-up takes about 11 s here, so a run makes two rather than
	// setupReps, which keeps a run near one minute.
	reps := setupReps - 1
	if c.trace {
		reps = 1
	}
	var db *aplus.DB
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if db != nil {
			db.Close()
			release()
		}
		start := time.Now()
		if db, err = aplus.Generate(analyticData); err != nil {
			return err
		}
		db.Parallelism = analyticWorkers
		for _, ddl := range []string{ddlVPc, ddlEPc} {
			if err := db.Exec(ddl); err != nil {
				return fmt.Errorf("view DDL: %w", err)
			}
		}
		// Warm-up: run every text once. The first execution of a query is
		// far slower than later ones (SQ12 about twice), and leaving it in
		// the measured cycles would make the statistics depend on how many
		// cycles fit in a run.
		for i, q := range qs {
			n, err := db.CountCtx(ctx, q.Cypher)
			res.op(err)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", q.Name, err)
			}
			if n != want[i] {
				res.fail("warm-up %s counted %d, want %d", q.Name, n, want[i])
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer db.Close()
	release()
	st := db.Stats()
	indexBytes := st.PrimaryLevelBytes + st.PrimaryIDListBytes + st.SecondaryIndexBytes

	rng := rand.New(rand.NewSource(c.seed))
	// cycles runs whole cycles until d has passed, so every run measures the
	// same query mix; span names the root span of each read when tr is set.
	cycles := func(d time.Duration, tr *tracer) ([]sample, []window) {
		var l lats
		var ws []window
		start := time.Now()
		for req := int64(1); time.Since(start) < d; {
			from := time.Now()
			for _, i := range rng.Perm(len(qs)) {
				var end func() time.Duration
				if tr != nil {
					end, _ = tr.begin("aplus.read", 0, req)
				}
				t := time.Now()
				n, err := db.CountCtx(ctx, qs[i].Cypher)
				l.add(t, err)
				if end != nil {
					end()
				}
				req++
				if err == nil && n != want[i] {
					res.fail("%s counted %d, want %d", qs[i].Name, n, want[i])
				}
			}
			ws = append(ws, window{from, time.Now().Add(time.Nanosecond)})
		}
		return merge([]lats{l}, res), ws
	}

	if !c.trace {
		reads, ws := cycles(c.dur, nil)
		reportReads(res, reads, ws, 0.80)
		return selfPeak(res, setups, indexBytes)
	}

	tr := newTracer()
	var ls layerStats
	before := db.Stats()
	reads, ws := cycles(c.dur/2, nil)
	after := db.Stats()
	ls.reads = int64(len(reads))
	ls.planHits = after.PlanCacheHits - before.PlanCacheHits
	ls.planMisses = after.PlanCacheMisses - before.PlanCacheMisses
	ls.untracedRPS = rate(reads, ws)
	reads, ws = cycles(c.dur/2, tr)
	ls.tracedRPS = rate(reads, ws)

	// The layer replay is the stream's first cycle.
	var reqs []request
	for _, i := range rand.New(rand.NewSource(c.seed)).Perm(len(qs)) {
		reqs = append(reqs, request{qs[i].Cypher, want[i]})
	}
	replayCounts(tr, res, "aplus.count", reqs, func(q string) (int64, error) { return db.CountCtx(ctx, q) })
	db.Close()
	release()
	if err := replayLayers(tr, res, analyticGraph(), analyticWorkers, []viewBuild{viewVPc, viewEPc}, nil, reqs); err != nil {
		return err
	}
	release()
	g := gen.Build(analyticGraph())
	if err := clusterReplay(tr, res, g, []string{ddlVPc, ddlEPc}, reqs); err != nil {
		return err
	}
	release()
	if err := pingProbe(c, tr, res, nil); err != nil {
		return err
	}
	commitProbe(tr, res, ref, c.seed)
	ls.foldStats(ref.Stats())
	if err := durableProbe(c, tr, res, &ls, g); err != nil {
		return err
	}
	reportLayers(res, tr, &ls)
	return finishTrace(tr, c.work, "analytic", c.seed)
}
