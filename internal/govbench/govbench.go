// Package govbench measures the cost of query governance through the
// public aplus API: the steady-state overhead of running every query with
// an armed governor and an admission gate versus the ungoverned path, and
// the latency from canceling an in-flight query to its return. It lives
// outside internal/harness (like the fault sweep) because it drives the
// public aplus package, which internal/harness cannot import — the root
// package's own benchmarks import harness.
package govbench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/harness"
)

const (
	triangleQ = "MATCH a1-[e1]->a2-[e2]->a3, a3-[e3]->a1"
	star3Q    = "MATCH a1-[e1]->a2, a1-[e2]->a3, a1-[e3]->a4"
)

// overheadBar is the acceptance bar for governed-vs-baseline runtime
// overhead on the triangle ablation query: the per-morsel and per-1024-
// tuple governor ticks plus the admission gate must stay within 2%.
const overheadBar = 0.02

// Governed runs the governance-overhead experiment and the
// cancellation-latency experiment, printing a summary and returning rows.
// Overhead rows are timing-noisy and deliberately excluded from "-exp all"
// (and so from stored-baseline gating), like mixed and merge.
func Governed(o harness.Options) []harness.Row {
	w := io.Writer(io.Discard)
	if o.Out != nil {
		w = o.Out
	}
	return append(overhead(w, o), cancelLatency(w, o)...)
}

// overhead compares the triangle ablation query on the BerkStan financial
// graph under (a) the plain ungoverned path (nil governor, no gate),
// (b) a cancelable context plus an admission gate — the full governed
// prologue every production query pays — and (c) the same governed run
// with per-operator tracing armed (EXPLAIN ANALYZE). Both (a) and (b)
// run with tracing disarmed, so the 2% bar also guards the disarmed
// trace check on the execution hot loop; the armed-tracing row is
// advisory (tracing is a diagnostic the caller opts into per query).
func overhead(w io.Writer, o harness.Options) []harness.Row {
	fmt.Fprintf(w, "\n=== Governance overhead: triangle on BerkStan (scale %.2f) ===\n", scaleOf(o))
	db := benchDB(o)
	db.MaxConcurrentQueries = runtime.GOMAXPROCS(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Warm both paths (index build, planner caches) before timing.
	want, err := db.Count(triangleQ)
	if err != nil {
		panic(err)
	}
	if _, err := db.CountCtx(ctx, triangleQ); err != nil {
		panic(err)
	}
	if t, err := db.ExplainAnalyze(triangleQ); err != nil || t.Count != want {
		panic(fmt.Sprintf("traced warm-up: err=%v", err))
	}

	// Interleave the three paths rep by rep so clock drift, thermal ramps,
	// and background scheduling hit all distributions alike.
	const reps = 21
	baseLat := make([]time.Duration, reps)
	govLat := make([]time.Duration, reps)
	traceLat := make([]time.Duration, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if n, err := db.Count(triangleQ); err != nil || n != want {
			panic(fmt.Sprintf("baseline run: n=%d err=%v", n, err))
		}
		baseLat[i] = time.Since(start)
		start = time.Now()
		if n, err := db.CountCtx(ctx, triangleQ); err != nil || n != want {
			panic(fmt.Sprintf("governed run: n=%d err=%v", n, err))
		}
		govLat[i] = time.Since(start)
		start = time.Now()
		if t, err := db.ExplainAnalyze(triangleQ); err != nil || t.Count != want {
			panic(fmt.Sprintf("traced run: err=%v", err))
		}
		traceLat[i] = time.Since(start)
	}
	// Compare best-case runs: the work is deterministic, so the minimum is
	// the measurement least polluted by scheduler and GC noise.
	base, gov, traced := minOf(baseLat), minOf(govLat), minOf(traceLat)
	pct := gov.Seconds()/base.Seconds() - 1
	verdict := "PASS"
	if pct > overheadBar {
		verdict = fmt.Sprintf("WARN (bar %.0f%%)", overheadBar*100)
	}
	fmt.Fprintf(w, "baseline %12v   governed %12v   overhead %+6.2f%%  %s\n",
		base, gov, pct*100, verdict)
	fmt.Fprintf(w, "traced   %12v   vs governed %+6.2f%%  (armed per-operator tracing; advisory)\n",
		traced, (traced.Seconds()/gov.Seconds()-1)*100)
	return []harness.Row{
		{Table: "governed", Dataset: "Brk", Config: "baseline", Query: "tri", Seconds: base.Seconds(), Count: want},
		{Table: "governed", Dataset: "Brk", Config: "governed", Query: "tri", Seconds: gov.Seconds(), Count: want},
		{Table: "governed", Dataset: "Brk", Config: "traced", Query: "tri", Seconds: traced.Seconds(), Count: want},
	}
}

// cancelLatency measures, on a hub-dominated star3 shape whose enumeration
// would run far longer than the experiment, the time from firing a cancel
// to QueryCtx returning — the bound the governor's per-morsel and
// per-CheckEvery-tuple ticks are meant to enforce.
func cancelLatency(w io.Writer, o harness.Options) []harness.Row {
	const fan = 200 // star3 from the hub enumerates fan^3 = 8M rows
	fmt.Fprintf(w, "\n=== Cancellation latency: star3 hub fan-out (%d spokes) ===\n", fan)
	db := aplus.New()
	hub, err := db.AddVertex("H", nil)
	if err != nil {
		panic(err)
	}
	for i := 0; i < fan; i++ {
		s, err := db.AddVertex("S", nil)
		if err != nil {
			panic(err)
		}
		if _, err := db.AddEdge(hub, s, "E", nil); err != nil {
			panic(err)
		}
	}
	if _, err := db.Count(star3Q); err != nil { // build indexes
		panic(err)
	}

	const iters = 100
	lat := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		fired := make(chan time.Time, 1)
		go func() {
			time.Sleep(time.Millisecond)
			fired <- time.Now()
			cancel()
		}()
		err := db.QueryCtx(ctx, star3Q, func(aplus.Row) bool { return true })
		ret := time.Now()
		if err == nil {
			panic("hub star3 completed before cancel; shape too small")
		}
		lat = append(lat, ret.Sub(<-fired))
		cancel()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99 := lat[len(lat)/2], lat[len(lat)*99/100]
	fmt.Fprintf(w, "cancel->return over %d runs: p50 %10v  p99 %10v\n", iters, p50, p99)
	return []harness.Row{
		{Table: "governed", Dataset: "hub", Config: "cancel", Query: "p50", Seconds: p50.Seconds()},
		{Table: "governed", Dataset: "hub", Config: "cancel", Query: "p99", Seconds: p99.Seconds()},
	}
}

// benchDB generates the financial BerkStan graph the ablation experiments
// use, at the harness scale.
func benchDB(o harness.Options) *aplus.DB {
	db, err := aplus.Generate(aplus.DatasetConfig{
		Preset: "berkstan", Scale: scaleOf(o), Seed: 11, Financial: true,
	})
	if err != nil {
		panic(err)
	}
	return db
}

func scaleOf(o harness.Options) float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

func minOf(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		if d < m {
			m = d
		}
	}
	return m
}
