package aplus

// Observability: per-operator query tracing (EXPLAIN ANALYZE), latency
// histograms, and the slow-query log. Tracing follows the governor pattern —
// an opt-in hook that is a nil pointer when disarmed, so the steady-state
// query path pays one pointer test and zero allocations (pinned by
// TestZeroAllocDisarmedTrace). An armed trace records a span per plan
// operator, merged across workers exactly like the profiled metrics, so the
// span sums are bit-identical to CountProfiled at any worker count.

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/obs"
)

// LatencyStats is a merged latency-histogram snapshot: sample count, sum,
// max, and log-bucketed p50/p95/p99 (quantiles carry the histogram's
// factor-of-two resolution). Merge combines snapshots across shards.
type LatencyStats = obs.HistStats

// TraceSpan is one plan operator's exclusive measurements in a QueryTrace:
// what the operator itself did, with its downstream chain's share subtracted
// out, so summing ICost (or PredEvals) over all spans reproduces the query's
// total bit-identically.
type TraceSpan struct {
	// Op is the operator's EXPLAIN rendering ("count sink" for the final
	// fold/emit span).
	Op string `json:"op"`
	// Folded marks operators executed arithmetically by count pushdown
	// rather than tuple-at-a-time.
	Folded bool `json:"folded,omitempty"`
	// Calls is how many times the operator ran: tuples consumed, morsels for
	// the root scan of a parallel run, fetches for a folded operator.
	Calls int64 `json:"calls"`
	// Rows is the number of tuples the operator produced.
	Rows int64 `json:"rows"`
	// ICost and PredEvals are the adjacency entries read and predicates
	// evaluated by this operator alone.
	ICost     int64 `json:"icost"`
	PredEvals int64 `json:"pred_evals"`
	// Nanos is wall time attributed to this operator (approximate — clock
	// resolution and clamping make it advisory, unlike the exact counters).
	Nanos int64 `json:"nanos"`
}

// WorkerTrace is one worker's share of a traced execution.
type WorkerTrace struct {
	// Shard is the owning database's shard index (0 when unsharded).
	Shard int `json:"shard"`
	// Worker is the pool index within its shard.
	Worker int `json:"worker"`
	// Morsels is the number of root-scan morsels the worker processed.
	Morsels   int64 `json:"morsels"`
	Rows      int64 `json:"rows"`
	ICost     int64 `json:"icost"`
	PredEvals int64 `json:"pred_evals"`
	Nanos     int64 `json:"nanos"`
}

// QueryTrace is the result of an EXPLAIN ANALYZE execution: the real count
// and metrics of a full run plus the per-operator and per-worker split.
// Traces from the shards of a cluster merge with Merge; Render formats the
// tree for humans.
type QueryTrace struct {
	// Query is the traced query text.
	Query string `json:"query"`
	// Count is the number of matches (the same count Count would return).
	Count int64 `json:"count"`
	// Metrics are the merged profiled metrics, bit-identical to
	// CountProfiled on the same snapshot.
	Metrics Metrics `json:"metrics"`
	// Nanos is the execution's wall time (max across shards after Merge,
	// since shards run concurrently).
	Nanos int64 `json:"nanos"`
	// Morsels is the total number of root-scan morsels processed.
	Morsels int64 `json:"morsels"`
	// FoldStart is the index of the first operator folded by count pushdown
	// (== the operator count when nothing folded).
	FoldStart int `json:"fold_start"`
	// Spans holds one exclusive span per plan operator plus a final span for
	// the counting sink.
	Spans []TraceSpan `json:"spans"`
	// Workers is the per-worker split, tagged with the owning shard (empty
	// for serial runs).
	Workers []WorkerTrace `json:"workers,omitempty"`
	// Stopped is the governance stop reason when the trace is partial
	// ("timeout", "i-cost budget", ...); empty for a completed run.
	Stopped string `json:"stopped,omitempty"`
}

// Merge folds another shard's trace of the same query into t, tagging its
// worker split with the shard index. Counts, metrics, and span counters sum
// (the sharded invariant: per-shard sums are bit-identical to an unsharded
// run); wall time takes the max, since shards execute concurrently. An
// empty receiver adopts o wholesale.
func (t *QueryTrace) Merge(o *QueryTrace, shard int) {
	if o == nil {
		return
	}
	if len(t.Spans) == 0 {
		*t = *o
		t.Spans = append([]TraceSpan(nil), o.Spans...)
		t.Workers = append([]WorkerTrace(nil), o.Workers...)
		for i := range t.Workers {
			t.Workers[i].Shard = shard
		}
		return
	}
	t.Count += o.Count
	t.Metrics.ICost += o.Metrics.ICost
	t.Metrics.PredEvals += o.Metrics.PredEvals
	t.Morsels += o.Morsels
	if o.Nanos > t.Nanos {
		t.Nanos = o.Nanos
	}
	for i := range t.Spans {
		if i >= len(o.Spans) {
			break
		}
		sp := o.Spans[i]
		t.Spans[i].Calls += sp.Calls
		t.Spans[i].Rows += sp.Rows
		t.Spans[i].ICost += sp.ICost
		t.Spans[i].PredEvals += sp.PredEvals
		t.Spans[i].Nanos += sp.Nanos
	}
	for _, w := range o.Workers {
		w.Shard = shard
		t.Workers = append(t.Workers, w)
	}
	if t.Stopped == "" {
		t.Stopped = o.Stopped
	}
}

// Render formats the trace as an EXPLAIN ANALYZE tree: a header with the
// run's totals, one line per operator with its exclusive metrics and share
// of the total i-cost, and the per-worker split.
func (t *QueryTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  count=%d  time=%v  i-cost=%d (est %.1f)  pred-evals=%d  morsels=%d\n",
		t.Count, time.Duration(t.Nanos).Round(time.Microsecond), t.Metrics.ICost,
		t.Metrics.EstimatedICost, t.Metrics.PredEvals, t.Morsels)
	if t.Stopped != "" {
		fmt.Fprintf(&b, "  (partial: stopped by %s)\n", t.Stopped)
	}
	for i, sp := range t.Spans {
		label := sp.Op
		switch {
		case i == len(t.Spans)-1:
			label = "Σ " + label
		case sp.Folded:
			label += " [folded]"
		}
		pct := 0.0
		if t.Metrics.ICost > 0 {
			pct = 100 * float64(sp.ICost) / float64(t.Metrics.ICost)
		}
		fmt.Fprintf(&b, "%s%2d. %-40s calls=%-8d rows=%-8d icost=%-8d (%5.1f%%)  preds=%-6d time=%v\n",
			strings.Repeat(" ", i), i+1, label, sp.Calls, sp.Rows, sp.ICost, pct,
			sp.PredEvals, time.Duration(sp.Nanos).Round(time.Microsecond))
	}
	for _, w := range t.Workers {
		fmt.Fprintf(&b, "  worker shard=%d w=%d: morsels=%d rows=%d icost=%d preds=%d time=%v\n",
			w.Shard, w.Worker, w.Morsels, w.Rows, w.ICost, w.PredEvals,
			time.Duration(w.Nanos).Round(time.Microsecond))
	}
	return b.String()
}

// ExplainAnalyze runs the query for real with per-operator tracing armed and
// returns the span tree: the EXPLAIN ANALYZE counterpart of Explain. The
// count and metrics in the trace are bit-identical to what CountProfiled
// would report on the same snapshot; tracing adds wall-time measurement but
// never changes what the query computes. Governance defaults (DB.Limits,
// DB.QueryTimeout, admission control) apply exactly as in Count.
func (db *DB) ExplainAnalyze(cypher string) (*QueryTrace, error) {
	return db.ExplainAnalyzeLimited(context.Background(), cypher, db.Limits)
}

// ExplainAnalyzeLimited is ExplainAnalyze with a context and explicit
// per-query limits. When governance stops the run (deadline, budget,
// cancellation) the partial trace accumulated up to the stop is returned
// alongside the governance error, with Stopped set to the reason.
func (db *DB) ExplainAnalyzeLimited(ctx context.Context, cypher string, limits QueryLimits) (*QueryTrace, error) {
	var qt *QueryTrace
	_, err := db.governedRead(ctx, cypher, limits, func(run *governedRun, rt *exec.Runtime, opts exec.ParallelOptions) (int64, error) {
		rt.Trace = &exec.Trace{}
		t0 := time.Now()
		n, err := run.plan.CountParallel(rt, opts)
		if err == nil {
			qt = buildQueryTrace(cypher, run.plan, rt, n, time.Since(t0), db.Shard.Index)
		}
		return n, err
	})
	return qt, err
}

// buildQueryTrace converts the exec layer's raw trace into the public form.
func buildQueryTrace(cypher string, plan *exec.Plan, rt *exec.Runtime, n int64, elapsed time.Duration, shard int) *QueryTrace {
	qt := &QueryTrace{
		Query: cypher, Count: n,
		Nanos: int64(elapsed), Morsels: rt.Trace.Morsels,
		FoldStart: rt.Trace.FoldStart(),
		Metrics:   Metrics{ICost: rt.ICost, PredEvals: rt.PredEvals, EstimatedICost: plan.EstimatedICost},
	}
	if rt.Gov != nil && rt.Gov.Stopped() {
		qt.Stopped = rt.Gov.Reason().String()
	}
	names := plan.OpNames()
	for i, sp := range rt.Trace.Report() {
		ts := TraceSpan{
			Calls: sp.Calls, Rows: sp.Rows, ICost: sp.ICost,
			PredEvals: sp.PredEvals, Nanos: sp.Nanos,
		}
		if i < len(names) {
			ts.Op = names[i]
			ts.Folded = i >= qt.FoldStart
		} else {
			ts.Op = "count sink"
		}
		qt.Spans = append(qt.Spans, ts)
	}
	for _, w := range rt.Trace.Workers {
		qt.Workers = append(qt.Workers, WorkerTrace{
			Shard: shard, Worker: w.Worker, Morsels: w.Morsels,
			Rows: w.Rows, ICost: w.ICost, PredEvals: w.PredEvals, Nanos: w.Nanos,
		})
	}
	return qt
}

// SlowQuery describes one read that ran at least SlowQueryThreshold: what
// ran, how long and how much it cost, how it ended, and the plan it used.
// The most recent one is surfaced in Stats.LastSlowQuery and, when
// DB.SlowQueryLog is set, logged structurally as it happens.
type SlowQuery struct {
	Query    string        `json:"query"`
	Duration time.Duration `json:"duration"`
	ICost    int64         `json:"icost"`
	Rows     int64         `json:"rows"`
	// Outcome is "ok" for a completed read, a governance stop reason
	// ("timeout", "i-cost budget", ...), or "panic".
	Outcome string `json:"outcome"`
	// Plan is the physical plan's EXPLAIN rendering ("" when planning
	// itself was the slow part).
	Plan string    `json:"plan,omitempty"`
	When time.Time `json:"when"`
}

// noteSlowQuery records a slow read: counts it, publishes it as
// Stats.LastSlowQuery, and emits the structured log record. The plan is
// rendered only here — on the slow path — never per query.
func (db *DB) noteSlowQuery(run *governedRun, elapsed time.Duration) {
	db.slowQueries.Add(1)
	sq := &SlowQuery{
		Query: run.cypher, Duration: elapsed, ICost: run.icost, Rows: run.rows,
		Outcome: run.outcome, When: time.Now(),
	}
	if sq.Outcome == "" {
		sq.Outcome = "ok"
	}
	if run.plan != nil {
		sq.Plan = run.plan.Explain()
	}
	db.lastSlowQuery.Store(sq)
	if lg := db.SlowQueryLog; lg != nil {
		lg.Warn("slow query",
			slog.String("query", sq.Query),
			slog.Duration("duration", sq.Duration),
			slog.Int64("icost", sq.ICost),
			slog.Int64("rows", sq.Rows),
			slog.String("outcome", sq.Outcome),
			slog.String("plan", sq.Plan),
		)
	}
}
