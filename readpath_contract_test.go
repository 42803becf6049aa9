package aplus_test

// Contract test for the one governed read path: every read kind (Count,
// Aggregate, ExplainAnalyze, Query), embedded and fanned out over a
// 2-shard cluster, honours the same admission, cancellation, budget,
// slow-query, and teardown rules.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/shard"
)

const contractQ = "MATCH a1-[e1]->a2-[e2]->a3"

// readTarget adapts an embedded DB or a cluster to one set of governed
// read signatures; dbs are the underlying databases whose counters the
// contract inspects.
type readTarget struct {
	dbs     []*aplus.DB
	count   func(context.Context, string, aplus.QueryLimits) (int64, aplus.Metrics, error)
	agg     func(context.Context, string, aplus.AggFunc, string, string, aplus.QueryLimits) (aplus.AggValue, aplus.Metrics, error)
	explain func(context.Context, string, aplus.QueryLimits) (*aplus.QueryTrace, error)
	query   func(context.Context, string, aplus.QueryLimits, func(aplus.Row) bool) error
	close   func() error
}

type graphWriter interface {
	AddVertex(label string, props aplus.Props) (aplus.VertexID, error)
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
}

func fillContractGraph(t *testing.T, w graphWriter) {
	t.Helper()
	const nv, deg = 120, 5
	ids := make([]aplus.VertexID, nv)
	for i := range ids {
		v, err := w.AddVertex("V", aplus.Props{"x": int64(i % 17)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v
	}
	for i := 0; i < nv; i++ {
		for d := 0; d < deg; d++ {
			if _, err := w.AddEdge(ids[i], ids[(i*37+d*11+1)%nv], "E", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func embeddedTarget(t *testing.T) readTarget {
	db := aplus.New()
	fillContractGraph(t, db)
	return readTarget{
		dbs: []*aplus.DB{db}, count: db.CountProfiledLimited, agg: db.AggregateLimited,
		explain: db.ExplainAnalyzeLimited, query: db.QueryLimited, close: db.Close,
	}
}

func clusterTarget(t *testing.T) readTarget {
	c, err := shard.New(shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fillContractGraph(t, c)
	dbs := make([]*aplus.DB, c.NumShards())
	for i := range dbs {
		dbs[i] = c.DB(i)
	}
	return readTarget{
		dbs: dbs, count: c.CountProfiledLimited, agg: c.Aggregate,
		explain: c.ExplainAnalyze, query: c.QueryLimited, close: c.Close,
	}
}

// contractReads runs each read kind and reports the rows it produced.
var contractReads = []struct {
	name string
	run  func(tg readTarget, ctx context.Context, limits aplus.QueryLimits) (int64, error)
}{
	{"Count", func(tg readTarget, ctx context.Context, limits aplus.QueryLimits) (int64, error) {
		n, _, err := tg.count(ctx, contractQ, limits)
		return n, err
	}},
	{"Aggregate", func(tg readTarget, ctx context.Context, limits aplus.QueryLimits) (int64, error) {
		v, _, err := tg.agg(ctx, contractQ, aplus.AggSum, "a3", "x", limits)
		return v.Rows, err
	}},
	{"ExplainAnalyze", func(tg readTarget, ctx context.Context, limits aplus.QueryLimits) (int64, error) {
		qt, err := tg.explain(ctx, contractQ, limits)
		if err != nil {
			return 0, err
		}
		return qt.Count, nil
	}},
	{"Query", func(tg readTarget, ctx context.Context, limits aplus.QueryLimits) (int64, error) {
		var rows int64
		err := tg.query(ctx, contractQ, limits, func(aplus.Row) bool {
			rows++ // calls are serialized, embedded and fanned out
			return true
		})
		return rows, err
	}},
}

func TestGovernedReadContract(t *testing.T) {
	targets := []struct {
		name  string
		build func(*testing.T) readTarget
	}{
		{"embedded", embeddedTarget},
		{"cluster2", clusterTarget},
	}
	for _, tc := range targets {
		for _, rd := range contractReads {
			t.Run(fmt.Sprintf("%s/%s", tc.name, rd.name), func(t *testing.T) {
				tg := tc.build(t)
				for _, db := range tg.dbs {
					db.SlowQueryThreshold = time.Nanosecond
				}
				settled := func(step string) {
					t.Helper()
					for i, db := range tg.dbs {
						if p := aplus.SnapPins(db); p != 0 {
							t.Errorf("%s: db %d snapshot pins = %d, want 0", step, i, p)
						}
						if f := db.Stats().QueriesInFlight; f != 0 {
							t.Errorf("%s: db %d QueriesInFlight = %d, want 0", step, i, f)
						}
					}
				}

				// A successful run's slow-query record counts the rows the
				// read produced (summed over shards).
				rows, err := rd.run(tg, context.Background(), aplus.QueryLimits{})
				if err != nil || rows == 0 {
					t.Fatalf("ok run = %d rows, %v; want > 0 rows, nil", rows, err)
				}
				var slowRows int64
				for i, db := range tg.dbs {
					sq := db.Stats().LastSlowQuery
					if sq == nil || sq.Outcome != "ok" {
						t.Fatalf("ok run: db %d slow query = %+v, want outcome ok", i, sq)
					}
					slowRows += sq.Rows
				}
				if slowRows != rows {
					t.Errorf("slow-query rows = %d, read returned %d", slowRows, rows)
				}
				settled("ok")

				// An i-cost budget of 1 trips on the first flush.
				_, err = rd.run(tg, context.Background(), aplus.QueryLimits{MaxICost: 1})
				if !errors.Is(err, aplus.ErrBudgetExceeded) {
					t.Errorf("MaxICost 1: err = %v, want ErrBudgetExceeded", err)
				}
				budget := false
				for _, db := range tg.dbs {
					if sq := db.Stats().LastSlowQuery; sq != nil && sq.Outcome == "i-cost budget" {
						budget = true
					}
				}
				if !budget {
					t.Errorf("MaxICost 1: no slow query with outcome %q", "i-cost budget")
				}
				settled("budget")

				// A context that is already dead never runs.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := rd.run(tg, ctx, aplus.QueryLimits{}); !errors.Is(err, aplus.ErrQueryCanceled) {
					t.Errorf("pre-canceled ctx: err = %v, want ErrQueryCanceled", err)
				}
				settled("canceled")

				if err := tg.close(); err != nil {
					t.Fatal(err)
				}
				if _, err := rd.run(tg, context.Background(), aplus.QueryLimits{}); !errors.Is(err, aplus.ErrClosed) {
					t.Errorf("after Close: err = %v, want ErrClosed", err)
				}
				settled("closed")
			})
		}
	}
}
