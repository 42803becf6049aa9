package aplus

// Public aggregate API: COUNT/SUM/MIN/MAX over an integer vertex property,
// evaluated with factorized aggregate pushdown (see internal/exec/agg.go).
// Aggregates route through the same machinery as counts — governance,
// admission, the plan cache, morsel parallelism, and shard fan-out — and their match count and i-cost are bit-identical to
// full enumeration.

import (
	"context"
	"fmt"
	"strings"

	"github.com/aplusdb/aplus/internal/exec"
)

// AggFunc names an aggregate function for DB.Aggregate.
type AggFunc string

const (
	// AggCount counts matches; the variable and property are ignored.
	AggCount AggFunc = "count"
	// AggSum sums an integer vertex property over all matches.
	AggSum AggFunc = "sum"
	// AggMin takes the minimum of an integer vertex property over matches.
	AggMin AggFunc = "min"
	// AggMax takes the maximum of an integer vertex property over matches.
	AggMax AggFunc = "max"
)

// ParseAggFunc resolves a case-insensitive aggregate-function name.
func ParseAggFunc(s string) (AggFunc, error) {
	switch AggFunc(strings.ToLower(strings.TrimSpace(s))) {
	case AggCount:
		return AggCount, nil
	case AggSum:
		return AggSum, nil
	case AggMin:
		return AggMin, nil
	case AggMax:
		return AggMax, nil
	}
	return "", fmt.Errorf("aplus: unknown aggregate function %q (want count, sum, min, or max)", s)
}

// AggValue is an aggregate query's result. Matches whose property is
// missing or non-integer are NULLs: they count toward Rows but contribute
// nothing to Value; Valid reports whether any non-null value was seen
// (always true for AggCount). Aggregates are integer-exact — any
// partitioning of the work across workers, morsels, or shards yields a
// bit-identical AggValue.
type AggValue struct {
	// Rows is the number of matches.
	Rows int64
	// Value is the aggregate (the match count itself for AggCount).
	Value int64
	// Valid reports whether Value is meaningful (some non-null input).
	Valid bool
}

// Merge folds another partition's aggregate (same query, same function)
// into v — exact for every AggFunc: counts and sums add, extrema compare,
// validity ORs. The shard fan-out uses it for the cross-shard merge.
func (v *AggValue) Merge(fn AggFunc, o AggValue) {
	v.Rows += o.Rows
	switch fn {
	case AggCount:
		v.Value += o.Value
		v.Valid = true
	case AggSum:
		v.Value += o.Value
		v.Valid = v.Valid || o.Valid
	case AggMin:
		if o.Valid && (!v.Valid || o.Value < v.Value) {
			v.Value = o.Value
		}
		v.Valid = v.Valid || o.Valid
	case AggMax:
		if o.Valid && (!v.Valid || o.Value > v.Value) {
			v.Value = o.Value
		}
		v.Valid = v.Valid || o.Valid
	}
}

// Aggregate evaluates fn over the matches of cypher: AggCount counts them;
// AggSum/AggMin/AggMax aggregate the integer property prop of the query
// vertex named variable (e.g. Aggregate(q, AggSum, "a2", "amt")). Trailing
// independent fan-outs are folded arithmetically rather than enumerated, so
// aggregates over star-shaped tails cost what a Count does.
func (db *DB) Aggregate(cypher string, fn AggFunc, variable, prop string) (AggValue, error) {
	v, _, err := db.aggregateGoverned(context.Background(), cypher, fn, variable, prop, db.Limits)
	return v, err
}

// AggregateCtx is Aggregate with cancellation (see CountCtx): deadlines,
// cancellation, and database-default budgets apply with latency bounded by
// one morsel of work.
func (db *DB) AggregateCtx(ctx context.Context, cypher string, fn AggFunc, variable, prop string) (AggValue, error) {
	v, _, err := db.aggregateGoverned(ctx, cypher, fn, variable, prop, db.Limits)
	return v, err
}

// AggregateLimited runs an aggregate under explicit per-query limits,
// returning the profiled metrics alongside the value.
func (db *DB) AggregateLimited(ctx context.Context, cypher string, fn AggFunc, variable, prop string, limits QueryLimits) (AggValue, Metrics, error) {
	return db.aggregateGoverned(ctx, cypher, fn, variable, prop, limits)
}

// aggregateGoverned is the governed core of every Aggregate variant.
func (db *DB) aggregateGoverned(ctx context.Context, cypher string, fn AggFunc, variable, prop string, limits QueryLimits) (AggValue, Metrics, error) {
	var res exec.AggResult
	m, err := db.governedRead(ctx, cypher, limits, func(run *governedRun, rt *exec.Runtime, opts exec.ParallelOptions) (int64, error) {
		spec, err := aggSpecFor(run.plan, fn, variable, prop)
		if err != nil {
			return 0, err
		}
		res, err = run.plan.AggregateParallel(rt, opts, spec)
		return res.Rows, err
	})
	if err != nil {
		return AggValue{}, m, err
	}
	return aggValueOf(fn, res), m, nil
}

// aggSpecFor resolves the public (function, variable, property) triple to
// an exec spec against the plan's binding slots.
func aggSpecFor(plan *exec.Plan, fn AggFunc, variable, prop string) (exec.AggSpec, error) {
	var kind exec.AggKind
	switch fn {
	case AggCount:
		return exec.AggSpec{Kind: exec.AggCount, Slot: -1}, nil
	case AggSum:
		kind = exec.AggSum
	case AggMin:
		kind = exec.AggMin
	case AggMax:
		kind = exec.AggMax
	default:
		return exec.AggSpec{}, fmt.Errorf("aplus: unknown aggregate function %q", fn)
	}
	if prop == "" {
		return exec.AggSpec{}, fmt.Errorf("aplus: aggregate %s needs a vertex variable and property", fn)
	}
	for i, name := range plan.VertexNames {
		if name == variable {
			return exec.AggSpec{Kind: kind, Slot: i, Prop: prop}, nil
		}
	}
	return exec.AggSpec{}, fmt.Errorf("aplus: aggregate variable %q is not a vertex variable of the query", variable)
}

// aggValueOf projects the exec accumulator onto the requested function.
func aggValueOf(fn AggFunc, r exec.AggResult) AggValue {
	switch fn {
	case AggCount:
		return AggValue{Rows: r.Rows, Value: r.Rows, Valid: true}
	case AggSum:
		return AggValue{Rows: r.Rows, Value: r.Sum, Valid: r.NonNull > 0}
	case AggMin:
		return AggValue{Rows: r.Rows, Value: r.Min, Valid: r.NonNull > 0}
	case AggMax:
		return AggValue{Rows: r.Rows, Value: r.Max, Valid: r.NonNull > 0}
	}
	return AggValue{}
}
