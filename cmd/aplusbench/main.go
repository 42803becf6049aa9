// Command aplusbench regenerates the paper's evaluation tables on the
// scaled synthetic datasets.
//
// Usage:
//
//	aplusbench -exp table2 [-scale 0.5] [-workers 8] [-json rows.json]
//	aplusbench -exp all
//	aplusbench -exp table5 -baseline old.json [-tolerance 0.10]
//	aplusbench -mixed [-mixed-writers 2] [-mixed-readers 8] [-mixed-batch 64] [-mixed-reads 200] [-mixed-ratio 0.2]
//	aplusbench -merge
//	aplusbench -durable /tmp/db
//	aplusbench -faults 24
//	aplusbench -governed
//	aplusbench -served
//
// Experiments: table1, table2, table3, table4, table5, maintenance,
// parallel, hubskew, mixed, merge, durability, faults, governed, served, all
// ("all" excludes mixed, merge, durability, faults, governed, and served,
// whose rows are
// scheduling- or hardware-dependent — or pass/fail rather than a
// measurement — and therefore unsuitable for -baseline gating).
//
// -merge (or -exp merge) measures delta-fold cost on the largest bench
// graph: deltas of increasing size are folded twice, once through the
// O(delta) incremental patch (dirty owners re-packed, clean owners' blocks
// copied wholesale) and once through the O(E) full rebuild, with the two
// successor stores verified bit-identical (checkpoint encodings, counts,
// i-cost) before the latencies are reported.
//
// -durable <dir> (or -exp durability) runs the storage-engine experiment:
// grouped-batch write throughput with every commit fsync'd to the
// write-ahead log vs the in-memory path (bar: within 2x), a mid-workload
// checkpoint, and a close/reopen cycle reporting reopen time, WAL records
// and operations replayed, and checkpoint/WAL sizes. The directory must be
// empty or nonexistent; "-durable tmp" uses a throwaway temp dir.
//
// -faults <n> (or -exp faults) runs the crash/fault-injection sweep over
// the in-memory filesystem: a scripted workload (commits, folds,
// checkpoints, WAL truncations) is traced once fault-free, then re-run
// with a crash and a one-shot fault injected at each of n evenly-sampled
// disk-op sites (0 = every site), asserting recovery is bit-identical to
// the last acknowledged commit and degraded mode engages exactly when a
// commit's WAL fsync fails. Any violated invariant panics.
//
// -served (or -exp served) measures the sharded serving layer: a remote
// triangle count over the aplusd wire protocol on TCP loopback vs the
// same count on an embedded database with identical data (parity of
// counts and i-cost is asserted first), plus the compiled-plan cache's
// cold-vs-warm speedup on the served path. Loopback RTT and scheduler
// noise dominate these rows, so they are advisory and excluded from
// -baseline gating.
//
// -governed (or -exp governed) measures query governance through the
// public API: the runtime overhead of the armed governor (cancel checks
// once per morsel and once per 1024 sink tuples) plus the admission gate
// on the triangle ablation query — acceptance bar 2% over the ungoverned
// path — and the cancel-to-return latency p50/p99 of an in-flight star3
// query on a hub-dominated fan-out shape.
//
// -mixed (or -exp mixed) runs the snapshot-isolation mixed workload:
// reader goroutines counting over pinned snapshots while writer goroutines
// commit batches and the background merger folds deltas; it reports read
// p50/p99 for the read-only and mixed phases, the p99 ratio between them,
// and write throughput.
//
// -workers runs every query through the morsel-driven parallel executor
// with that pool size (0 = serial, matching the paper's single-threaded
// runs). The parallel experiment is the exception: it always sweeps
// 1..max(workers, GOMAXPROCS) worker counts, since a scaling curve needs
// more than one. -json dumps every measured row as a machine-readable
// JSON array for trajectory tracking across commits.
//
// -hist re-runs each measured table query a few times and annotates its
// row with per-run latency p50/p99 (log-bucketed histogram quantiles).
// The quantiles ride along in -json rows but are advisory: -baseline
// gates only runtime, count, and i-cost, never the quantiles.
//
// -baseline loads a prior -json dump and prints per-row deltas against it;
// the process exits non-zero when any matched row runs slower than
// baseline*(1+tolerance), or its count or i-cost changed at all — the
// stored-baseline regression gate for CI and local before/after runs. A
// negative -tolerance makes the runtime comparison advisory-only (counts
// and i-cost, which are deterministic, still gate) — the right setting
// when the baseline was blessed on different hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/aplusdb/aplus/internal/faultsweep"
	"github.com/aplusdb/aplus/internal/govbench"
	"github.com/aplusdb/aplus/internal/harness"
	"github.com/aplusdb/aplus/internal/servedbench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|table3|table4|table5|maintenance|parallel|hubskew|mixed|merge|durability|faults|governed|served|all")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	verify := flag.Bool("verify", true, "cross-check counts across configurations")
	workers := flag.Int("workers", 0, "query worker-pool size (0 = serial, N = morsel-driven with N workers)")
	jsonPath := flag.String("json", "", "write all measured rows to this file as JSON")
	baseline := flag.String("baseline", "", "compare measured rows against this prior -json dump")
	tolerance := flag.Float64("tolerance", 0.10, "slowdown fraction tolerated before -baseline reports a regression; negative = runtime advisory-only (counts/i-cost still gate)")
	mixed := flag.Bool("mixed", false, "run the mixed read/write workload (shorthand for -exp mixed)")
	mergeExp := flag.Bool("merge", false, "run the fold-cost experiment: incremental vs full delta folds across delta sizes (shorthand for -exp merge)")
	durable := flag.String("durable", "", "run the durable storage-engine experiment in this directory (shorthand for -exp durability; \"tmp\" = throwaway temp dir)")
	faultSites := flag.Int("faults", -1, "run the crash/fault-injection sweep over this many evenly-sampled disk-op sites, 0 = all (shorthand for -exp faults)")
	governed := flag.Bool("governed", false, "run the query-governance overhead and cancellation-latency experiment (shorthand for -exp governed)")
	served := flag.Bool("served", false, "run the serving-layer experiment: remote vs embedded latency and plan-cache speedup (shorthand for -exp served)")
	mixedReaders := flag.Int("mixed-readers", 8, "mixed: reader goroutines")
	mixedWriters := flag.Int("mixed-writers", 1, "mixed: writer goroutines committing batches")
	mixedBatch := flag.Int("mixed-batch", 64, "mixed: ops per committed batch")
	mixedReads := flag.Int("mixed-reads", 200, "mixed: queries per reader per phase")
	mixedRatio := flag.Float64("mixed-ratio", 0.2, "mixed: fraction of batch ops that are deletes")
	hist := flag.Bool("hist", false, "re-run each table query a few times and add per-run latency p50/p99 to rows (advisory; excluded from -baseline gating)")
	flag.Parse()
	if *mixed {
		*exp = "mixed"
	}
	if *mergeExp {
		*exp = "merge"
	}
	if *durable != "" {
		*exp = "durability"
	}
	if *faultSites >= 0 {
		*exp = "faults"
	}
	if *governed {
		*exp = "governed"
	}
	if *served {
		*exp = "served"
	}

	var baseRows []harness.Row
	if *baseline != "" {
		var err error
		baseRows, err = harness.LoadRows(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load baseline: %v\n", err)
			os.Exit(2)
		}
	}

	durableDir := *durable
	if durableDir == "tmp" {
		durableDir = "" // harness.Durability picks a throwaway temp dir
	}
	o := harness.Options{
		Out: os.Stdout, Scale: *scale, Verify: *verify, Workers: *workers,
		MixedReaders: *mixedReaders, MixedWriters: *mixedWriters,
		MixedBatch: *mixedBatch, MixedReads: *mixedReads, MixedWriteRatio: *mixedRatio,
		DurableDir: durableDir, Hist: *hist,
	}
	if *faultSites > 0 {
		o.FaultSites = *faultSites
	}
	run := map[string]func(harness.Options) []harness.Row{
		"table1":      harness.Table1,
		"table2":      harness.Table2,
		"table3":      harness.Table3,
		"table4":      harness.Table4,
		"table5":      harness.Table5,
		"maintenance": harness.Maintenance,
		"parallel":    harness.ParallelScaling,
		"hubskew":     harness.HubSkew,
		"mixed":       harness.Mixed,
		"merge":       harness.MergeBench,
		"durability":  harness.Durability,
		"faults":      faultsweep.FaultSweep,
		"governed":    govbench.Governed,
		"served":      servedbench.Served,
	}
	var rows []harness.Row
	if *exp == "all" {
		for _, name := range []string{"table1", "table2", "table3", "table4", "table5", "maintenance", "parallel", "hubskew"} {
			rows = append(rows, run[name](o)...)
		}
	} else {
		f, ok := run[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			flag.Usage()
			os.Exit(2)
		}
		rows = f(o)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal rows: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(rows), *jsonPath)
	}
	if *baseline != "" {
		if regressed := harness.CompareBaseline(os.Stdout, baseRows, rows, *tolerance); regressed > 0 {
			os.Exit(1)
		}
	}
}
