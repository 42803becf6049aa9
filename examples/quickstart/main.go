// Quickstart: build the paper's running example (Figure 1), ask the
// paper's example queries, and tune the indexes with the paper's DDL.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	aplus "github.com/aplusdb/aplus"
)

func main() {
	db := aplus.New()

	// Accounts v1..v5 and customers (Figure 1).
	type acct struct {
		acc, city string
		balance   int
	}
	var accounts []aplus.VertexID
	for _, a := range []acct{{"SV", "SF", 300}, {"CQ", "SF", 450}, {"SV", "BOS", 120}, {"CQ", "BOS", 80}, {"SV", "LA", 900}} {
		v, err := db.AddVertex("Account", aplus.Props{"acc": a.acc, "city": a.city, "balance": a.balance})
		if err != nil {
			log.Fatal(err)
		}
		accounts = append(accounts, v)
	}
	var customers []aplus.VertexID
	for _, name := range []string{"Charles", "Alice", "Bob"} {
		v, err := db.AddVertex("Customer", aplus.Props{"name": name})
		if err != nil {
			log.Fatal(err)
		}
		customers = append(customers, v)
	}
	// Ownerships: Alice owns v1 and v2.
	owns := [][2]int{{0, 2}, {0, 3}, {1, 0}, {1, 1}, {2, 4}}
	for _, o := range owns {
		if _, err := db.AddEdge(customers[o[0]], accounts[o[1]], "O", nil); err != nil {
			log.Fatal(err)
		}
	}
	// A few transfers with amount/currency/date.
	type tfr struct {
		src, dst int
		label    string
		amt      int
		cur      string
		date     int
	}
	for _, t := range []tfr{
		{0, 2, "W", 200, "EUR", 4},
		{0, 1, "W", 25, "EUR", 17},
		{0, 4, "DD", 30, "EUR", 18},
		{0, 3, "W", 80, "USD", 20},
		{1, 2, "DD", 75, "USD", 7},
		{1, 3, "W", 75, "USD", 8},
		{1, 4, "DD", 10, "GBP", 13},
		{4, 2, "W", 5, "GBP", 19},
	} {
		if _, err := db.AddEdge(accounts[t.src], accounts[t.dst], t.label,
			aplus.Props{"amt": t.amt, "currency": t.cur, "date": t.date}); err != nil {
			log.Fatal(err)
		}
	}

	// Example 2 of the paper: Wire transfers from the accounts Alice owns.
	q := "MATCH (c:Customer)-[r1:O]->(a1:Account)-[r2:W]->(a2:Account) WHERE c.name = 'Alice'"
	n, err := db.Count(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Wire transfers from Alice's accounts: %d\n", n)

	// Example 4: tune the primary index for currency-equality workloads.
	if err := db.Exec(`RECONFIGURE PRIMARY INDEXES
		PARTITION BY eadj.label, eadj.currency
		SORT BY vnbr.city`); err != nil {
		log.Fatal(err)
	}
	n, m, err := db.CountProfiled(q + ", r2.currency = 'EUR'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("...in EUR after reconfiguration: %d (i-cost %d)\n", n, m.ICost)

	// Writes after the indexes exist are snapshot-isolated: group them in
	// one Batch and they commit atomically — queries either see all of the
	// batch or none of it, and never block on it. (Writes also work one at
	// a time; Batch amortizes the commit over the group.)
	var v6 aplus.VertexID
	if err := db.Batch(func(b *aplus.Batch) error {
		var err error
		v6, err = b.AddVertex("Account", aplus.Props{"acc": "SV", "city": "SF"})
		if err != nil {
			return err
		}
		if _, err := b.AddEdge(accounts[0], v6, "W",
			aplus.Props{"amt": 60, "currency": "EUR", "date": 21}); err != nil {
			return err
		}
		_, err = b.AddEdge(v6, accounts[2], "W",
			aplus.Props{"amt": 15, "currency": "EUR", "date": 22})
		return err
	}); err != nil {
		log.Fatal(err)
	}
	n, err = db.Count(q + ", r2.currency = 'EUR'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("...including the batched transfers: %d\n", n)

	// Inspect the chosen plan.
	plan, err := db.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan:\n%s", plan)

	st := db.Stats()
	fmt.Printf("\n%d vertices, %d edges; primary index: %d B levels + %d B ID lists\n",
		st.NumVertices, st.NumEdges, st.PrimaryLevelBytes, st.PrimaryIDListBytes)

	// Query governance: every read accepts a context (CountCtx / QueryCtx)
	// and optional resource budgets. A canceled context or an expired
	// deadline stops the query within about one morsel of work, unpins its
	// snapshot, and returns a wrapped sentinel you can match with errors.Is:
	// aplus.ErrQueryCanceled, ErrQueryTimeout, ErrBudgetExceeded. Engine
	// panics never crash or poison the database — they come back as errors
	// wrapping aplus.ErrQueryPanic, and the next query runs normally.
	// DB.QueryTimeout, DB.Limits, and DB.MaxConcurrentQueries (or the same
	// fields on OpenOptions) set database-wide defaults.
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a canceled context aborts before any work
	if _, err := db.CountCtx(ctx, q); !errors.Is(err, aplus.ErrQueryCanceled) {
		log.Fatalf("expected ErrQueryCanceled, got %v", err)
	}
	_, _, err = db.CountProfiledLimited(context.Background(), q, aplus.QueryLimits{MaxRows: 1})
	var be *aplus.BudgetError
	if !errors.As(err, &be) {
		log.Fatalf("expected a budget abort, got %v", err)
	}
	fmt.Printf("\ngoverned: %v (did %d rows, i-cost %d before the abort)\n",
		err, be.PartialRows, be.Partial.ICost)

	// Observability: ExplainAnalyze runs the query for real with
	// per-operator tracing armed — one span per plan operator with rows,
	// exclusive i-cost, and wall time, plus the per-worker split. The span
	// sums are bit-identical to CountProfiled on the same snapshot; tracing
	// is disarmed (zero-cost) for every other query. The same trace is
	// available remotely via the `analyze` verb and aplusshell's
	// `:analyze MATCH ...`.
	trace, err := db.ExplainAnalyze(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", trace.Render())

	// Aggregates: DB.Aggregate computes COUNT/SUM/MIN/MAX over all matches
	// of a query without materializing them — trailing fan-outs are folded
	// arithmetically (the same pushdown Count uses), and the parallel
	// executor merges per-worker partials exactly, so the result is
	// bit-identical at any Parallelism. SUM/MIN/MAX read an
	// integer property of one matched vertex variable; matches missing the
	// property count toward Rows but not the value (Valid reports whether
	// any non-NULL value was seen). Also available as the `aggregate` wire
	// verb and aplusshell's `:agg sum a1.balance MATCH ...`.
	agg, err := db.Aggregate("MATCH (c:Customer)-[r1:O]->(a1:Account)", aplus.AggSum, "a1", "balance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal balance across owned accounts: %d over %d ownerships\n", agg.Value, agg.Rows)
	if mx, err := db.Aggregate(q, aplus.AggMax, "a2", "balance"); err == nil && mx.Valid {
		fmt.Printf("largest receiving balance on Alice's wires: %d\n", mx.Value)
	}

	// Every governed read also lands in lock-free latency histograms,
	// surfaced as log-bucketed quantiles in Stats (and per shard plus
	// cluster-aggregated on aplusd's -metrics Prometheus endpoint). Setting
	// SlowQueryThreshold captures reads over the bar — count, most recent
	// query with its plan, and a structured slog record when SlowQueryLog
	// is set (aplusd: -slow-query 250ms).
	ost := db.Stats()
	fmt.Printf("\nquery latency: n=%d p50=%v p99=%v max=%v\n",
		ost.QueryLatency.Count, ost.QueryLatency.P50, ost.QueryLatency.P99, ost.QueryLatency.Max)

	// Durable databases: Open a directory instead of New, and every commit
	// is crash-safe (written and fsync'd to the write-ahead log) before it
	// becomes visible; reopening the directory recovers the exact state of
	// the last durable commit — checkpoint plus WAL-tail replay.
	dir, err := os.MkdirTemp("", "aplus-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ddb, err := aplus.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	err = ddb.Batch(func(b *aplus.Batch) error {
		x, err := b.AddVertex("Account", aplus.Props{"city": "SF"})
		if err != nil {
			return err
		}
		y, err := b.AddVertex("Account", aplus.Props{"city": "BOS"})
		if err != nil {
			return err
		}
		_, err = b.AddEdge(x, y, "W", aplus.Props{"amt": 40, "currency": "EUR"})
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ddb.Close(); err != nil {
		log.Fatal(err)
	}
	reopened, err := aplus.Open(dir) // recovery: checkpoint + WAL replay
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	n, err = reopened.Count("MATCH (a:Account)-[:W]->(b:Account)")
	if err != nil {
		log.Fatal(err)
	}
	dst := reopened.Stats()
	fmt.Printf("\ndurable reopen: %d wire transfer(s) survived restart (replayed %d WAL ops)\n",
		n, dst.ReplayedOps)

	// Failure semantics worth knowing before running on real disks:
	//
	//   - If a commit's WAL fsync fails, the database enters degraded
	//     read-only mode: that commit and every later write return an error
	//     wrapping aplus.ErrDegraded (check with errors.Is), while reads
	//     keep serving the last published snapshot. Restarting the process
	//     recovers every acknowledged commit; nothing is retried over the
	//     untrusted page cache. Stats().Degraded / DegradedCause /
	//     LastWALError report the state (aplusshell's :health prints them).
	//   - A full disk (ENOSPC) mid-commit does NOT degrade: the failing
	//     commit is rolled back to the last record boundary and writes may
	//     succeed again once space frees up.
	//   - Checkpoint failures are never fatal: the write-ahead log keeps
	//     the database recoverable, the failure shows up in
	//     Stats().LastCheckpointError, and the background merger retries
	//     with exponential backoff (tunable via OpenOptions.RetryBackoff).
	if dst.Degraded {
		log.Fatalf("unexpected degraded mode: %s", dst.DegradedCause)
	}
}
