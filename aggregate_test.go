package aplus

import (
	"context"
	"errors"
	"testing"
)

// aggTestDB builds a fan-out graph with an integer "x" vertex property,
// leaving every fifth vertex NULL so null handling is part of the contract.
func aggTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	const nv = 60
	for i := 0; i < nv; i++ {
		var p Props
		if i%5 != 4 {
			p = Props{"x": i*7%53 - 20}
		}
		if _, err := db.AddVertex("P", p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nv; i++ {
		for _, d := range []int{1, 3, 11} {
			if _, err := db.AddEdge(VertexID(i), VertexID((i+d)%nv), "K", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestAggregateMatchesEnumeration pins the public aggregate contract: each
// function agrees exactly with a streamed enumeration that reads the same
// property, at Parallelism 1 and 8 (the parallel path merges per-worker
// partials), with NULLs excluded from the value but counted in Rows.
func TestAggregateMatchesEnumeration(t *testing.T) {
	db := aggTestDB(t)
	const q = "MATCH a-[e1]->b, b-[e2]->c"
	var rows, sum, min, max, nonNull int64
	if err := db.Query(q, func(r Row) bool {
		rows++
		v, ok := db.VertexProp(r.Vertices["c"], "x").(int64)
		if !ok {
			return true
		}
		if nonNull == 0 || v < min {
			min = v
		}
		if nonNull == 0 || v > max {
			max = v
		}
		sum += v
		nonNull++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows == 0 || nonNull == 0 || nonNull == rows {
		t.Fatalf("degenerate aggregate fixture: rows=%d nonNull=%d", rows, nonNull)
	}
	wants := map[AggFunc]AggValue{
		AggCount: {Rows: rows, Value: rows, Valid: true},
		AggSum:   {Rows: rows, Value: sum, Valid: true},
		AggMin:   {Rows: rows, Value: min, Valid: true},
		AggMax:   {Rows: rows, Value: max, Valid: true},
	}
	for _, workers := range []int{1, 8} {
		db.Parallelism = workers
		for fn, want := range wants {
			got, err := db.Aggregate(q, fn, "c", "x")
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, fn, err)
			}
			if got != want {
				t.Errorf("workers=%d %s(c.x) = %+v, want %+v", workers, fn, got, want)
			}
		}
	}
}

// TestAggregateAllNulls pins the Valid flag: aggregating a property no
// vertex carries yields Valid=false with the row count intact.
func TestAggregateAllNulls(t *testing.T) {
	db := aggTestDB(t)
	got, err := db.Aggregate("MATCH a-[e1]->b", AggSum, "b", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid || got.Value != 0 || got.Rows == 0 {
		t.Errorf("all-null SUM = %+v, want Valid=false, Value=0, Rows>0", got)
	}
}

// TestAggregateErrors covers the argument contract: unknown function names,
// unknown variables, and a missing property for value aggregates all error;
// COUNT ignores both.
func TestAggregateErrors(t *testing.T) {
	db := aggTestDB(t)
	const q = "MATCH a-[e1]->b"
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("ParseAggFunc accepted an unknown function")
	}
	if fn, err := ParseAggFunc("SUM"); err != nil || fn != AggSum {
		t.Errorf("ParseAggFunc(SUM) = %v, %v", fn, err)
	}
	if _, err := db.Aggregate(q, AggSum, "z", "x"); err == nil {
		t.Error("aggregate over an unbound variable did not error")
	}
	if _, err := db.Aggregate(q, AggSum, "b", ""); err == nil {
		t.Error("value aggregate without a property did not error")
	}
	if _, err := db.Aggregate(q, AggCount, "", ""); err != nil {
		t.Errorf("COUNT with no variable/property errored: %v", err)
	}
}

// TestAggregateGoverned routes the aggregate through governance: an i-cost
// budget trips with the same sentinel as Count, and a canceled context is
// honored up front.
func TestAggregateGoverned(t *testing.T) {
	db := aggTestDB(t)
	const q = "MATCH a-[e1]->b, b-[e2]->c"
	if _, _, err := db.AggregateLimited(context.Background(), q, AggSum, "c", "x", QueryLimits{MaxICost: 1}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget trip err = %v, want ErrBudgetExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.AggregateCtx(ctx, q, AggCount, "", ""); !errors.Is(err, ErrQueryCanceled) {
		t.Errorf("canceled ctx err = %v, want ErrQueryCanceled", err)
	}
	// An ungoverned-equivalent run through the limited path agrees with the
	// plain one, and reports metrics.
	want, err := db.Aggregate(q, AggMax, "c", "x")
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := db.AggregateLimited(context.Background(), q, AggMax, "c", "x", QueryLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || m.ICost == 0 {
		t.Errorf("limited aggregate = %+v (icost %d), plain %+v", got, m.ICost, want)
	}
}
