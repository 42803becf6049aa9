package aplus

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestExplainAnalyzeMatchesProfiled pins the tracing oracle: the span sums
// of an EXPLAIN ANALYZE run are bit-identical to CountProfiled's merged
// metrics on the same snapshot, at any worker count. Tracing measures the
// execution; it must never change it.
func TestExplainAnalyzeMatchesProfiled(t *testing.T) {
	db := parallelTestDB(t)
	for _, workers := range []int{1, 2, 4, 7} {
		db.Parallelism = workers
		want, wantM, err := db.CountProfiled(parallelTestQuery)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := db.ExplainAnalyze(parallelTestQuery)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Count != want {
			t.Errorf("workers=%d: trace count = %d, want %d", workers, tr.Count, want)
		}
		if tr.Metrics.ICost != wantM.ICost || tr.Metrics.PredEvals != wantM.PredEvals {
			t.Errorf("workers=%d: trace metrics = %+v, want %+v", workers, tr.Metrics, wantM)
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("workers=%d: no spans", workers)
		}
		var sumICost, sumPreds int64
		for _, sp := range tr.Spans {
			sumICost += sp.ICost
			sumPreds += sp.PredEvals
			if sp.ICost < 0 || sp.PredEvals < 0 || sp.Nanos < 0 {
				t.Errorf("workers=%d: negative exclusive span %+v", workers, sp)
			}
		}
		if sumICost != wantM.ICost {
			t.Errorf("workers=%d: span i-cost sum = %d, want %d", workers, sumICost, wantM.ICost)
		}
		if sumPreds != wantM.PredEvals {
			t.Errorf("workers=%d: span pred-eval sum = %d, want %d", workers, sumPreds, wantM.PredEvals)
		}
		if got := tr.Spans[len(tr.Spans)-1].Op; got != "count sink" {
			t.Errorf("workers=%d: final span op = %q, want count sink", workers, got)
		}
		if workers > 1 {
			var wICost, wRows int64
			for _, ws := range tr.Workers {
				wICost += ws.ICost
				wRows += ws.Rows
				if ws.Shard != 0 {
					t.Errorf("unsharded worker tagged shard %d", ws.Shard)
				}
			}
			if wICost != wantM.ICost {
				t.Errorf("workers=%d: worker i-cost sum = %d, want %d", workers, wICost, wantM.ICost)
			}
			if wRows != want {
				t.Errorf("workers=%d: worker row sum = %d, want %d", workers, wRows, want)
			}
		}
	}
}

// TestExplainAnalyzeSkewAttribution extends the tracing oracle to a skewed
// parallel run: on a super-hub DB at 8 workers the per-worker sums equal
// the profiled metrics exactly and span sums stay bit-identical to the
// profiled run, however unevenly the hub's morsel loads one worker.
func TestExplainAnalyzeSkewAttribution(t *testing.T) {
	db := New()
	var vs []VertexID
	for i := 0; i < 48; i++ {
		v, err := db.AddVertex("V", nil)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	for i := range vs {
		if _, err := db.AddEdge(vs[i], vs[(i*5+1)%len(vs)], "E", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddEdge(vs[i], vs[(i*11+2)%len(vs)], "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	// The super-hub: vertex 0's list dwarfs the morsel size, so the morsel
	// that draws it outweighs all the others.
	for k := 0; k < 6000; k++ {
		if _, err := db.AddEdge(vs[0], vs[(k*7+1)%len(vs)], "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	const hubQ = "MATCH a-[e1]->b-[e2]->c"
	db.Parallelism = 8
	db.MorselSize = 8
	want, wantM, err := db.CountProfiled(hubQ)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.ExplainAnalyze(hubQ)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count != want {
		t.Errorf("trace count = %d, want %d", tr.Count, want)
	}
	if tr.Metrics.ICost != wantM.ICost || tr.Metrics.PredEvals != wantM.PredEvals {
		t.Errorf("trace metrics = %+v, want %+v", tr.Metrics, wantM)
	}
	var sumICost, sumPreds int64
	for _, sp := range tr.Spans {
		sumICost += sp.ICost
		sumPreds += sp.PredEvals
	}
	if sumICost != wantM.ICost || sumPreds != wantM.PredEvals {
		t.Errorf("span sums (%d,%d) != profiled (%d,%d)", sumICost, sumPreds, wantM.ICost, wantM.PredEvals)
	}
	var wICost, wRows int64
	for _, ws := range tr.Workers {
		wICost += ws.ICost
		wRows += ws.Rows
	}
	if wICost != wantM.ICost || wRows != want {
		t.Errorf("worker sums (icost %d, rows %d) != profiled (%d, %d)", wICost, wRows, wantM.ICost, want)
	}
}

// TestExplainAnalyzeRender smoke-tests the human rendering: header totals,
// one numbered line per span, and the sink marker.
func TestExplainAnalyzeRender(t *testing.T) {
	db := parallelTestDB(t)
	tr, err := db.ExplainAnalyze(parallelTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Render()
	if !strings.Contains(out, "EXPLAIN ANALYZE") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "Σ count sink") {
		t.Errorf("missing sink line:\n%s", out)
	}
	if got := strings.Count(out, "icost="); got < len(tr.Spans) {
		t.Errorf("rendered %d span lines, want >= %d:\n%s", got, len(tr.Spans), out)
	}
}

// TestExplainAnalyzePartialOnBudget asserts a governance stop still yields
// the partial trace with Stopped set, alongside the budget error.
func TestExplainAnalyzePartialOnBudget(t *testing.T) {
	db := parallelTestDB(t)
	tr, err := db.ExplainAnalyzeLimited(context.Background(), parallelTestQuery, QueryLimits{MaxICost: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if tr == nil {
		t.Fatal("no partial trace returned with the budget error")
	}
	if tr.Stopped == "" {
		t.Error("partial trace has empty Stopped reason")
	}
}

// TestStatsLatencyHistograms asserts the per-query histograms accumulate:
// every governed read lands one query-latency and one admission-wait sample.
func TestStatsLatencyHistograms(t *testing.T) {
	db := parallelTestDB(t)
	const runs = 5
	for i := 0; i < runs; i++ {
		if _, err := db.Count(parallelTestQuery); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.QueryLatency.Count < runs {
		t.Errorf("query latency samples = %d, want >= %d", st.QueryLatency.Count, runs)
	}
	if st.QueryLatency.Max <= 0 || st.QueryLatency.Sum <= 0 {
		t.Errorf("query latency max=%v sum=%v, want > 0", st.QueryLatency.Max, st.QueryLatency.Sum)
	}
	if st.QueryLatency.P99 < st.QueryLatency.P50 {
		t.Errorf("p99 %v < p50 %v", st.QueryLatency.P99, st.QueryLatency.P50)
	}
	if st.AdmissionWait.Count < runs {
		t.Errorf("admission wait samples = %d, want >= %d", st.AdmissionWait.Count, runs)
	}
}

// TestSlowQueryCapture asserts a read over the threshold is counted,
// published as LastSlowQuery, and logged structurally.
func TestSlowQueryCapture(t *testing.T) {
	db := parallelTestDB(t)
	var buf bytes.Buffer
	db.SlowQueryThreshold = time.Nanosecond // every query is slow
	db.SlowQueryLog = slog.New(slog.NewJSONHandler(&buf, nil))
	n, err := db.Count(parallelTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.SlowQueries == 0 {
		t.Error("slow query not counted")
	}
	sq := st.LastSlowQuery
	if sq == nil {
		t.Fatal("no LastSlowQuery in stats")
	}
	if sq.Query != parallelTestQuery {
		t.Errorf("slow query text = %q, want %q", sq.Query, parallelTestQuery)
	}
	if sq.Rows != n {
		t.Errorf("slow query rows = %d, want %d", sq.Rows, n)
	}
	if sq.Outcome != "ok" {
		t.Errorf("slow query outcome = %q, want ok", sq.Outcome)
	}
	if sq.ICost <= 0 || sq.Duration <= 0 || sq.When.IsZero() {
		t.Errorf("slow query missing fields: %+v", sq)
	}
	if sq.Plan == "" {
		t.Error("slow query has no plan rendering")
	}
	log := buf.String()
	if !strings.Contains(log, "slow query") || !strings.Contains(log, "\"outcome\":\"ok\"") {
		t.Errorf("structured log missing fields: %s", log)
	}
}

// TestSlowQueryOutcomeOnStop asserts the slow-query record of a governed
// stop carries the stop reason, not "ok".
func TestSlowQueryOutcomeOnStop(t *testing.T) {
	db := parallelTestDB(t)
	db.SlowQueryThreshold = time.Nanosecond
	_, _, err := db.CountProfiledLimited(context.Background(), parallelTestQuery, QueryLimits{MaxICost: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	sq := db.Stats().LastSlowQuery
	if sq == nil {
		t.Fatal("no LastSlowQuery after budget stop")
	}
	if sq.Outcome != "i-cost budget" {
		t.Errorf("outcome = %q, want i-cost budget", sq.Outcome)
	}
}
