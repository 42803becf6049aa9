package exec

// Factorized aggregate evaluation: the one fold behind COUNT, SUM, MIN, and
// MAX over integer vertex properties (COUNT is the AggCount case). The fold
// boundary proves that a trailing suffix of pure EXTENDs contributes only a
// product of list lengths — the match count; for the other aggregates the
// same boundary contributes the aggregated value times that multiplicity.
// Aggregates are int64-only: integer addition, min, and max are associative
// and commutative, so any partitioning of the work (morsels, shards, folded
// vs enumerated suffixes) yields bit-identical results — the same merge
// proof as the metric counters.

import (
	"time"

	"github.com/aplusdb/aplus/internal/storage"
)

// AggKind selects the aggregate function.
type AggKind uint8

const (
	// AggCount counts matches (COUNT(*)); Slot and Prop are ignored.
	AggCount AggKind = iota
	// AggSum sums an integer vertex property over all matches.
	AggSum
	// AggMin takes the minimum of an integer vertex property over matches.
	AggMin
	// AggMax takes the maximum of an integer vertex property over matches.
	AggMax
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// AggSpec names what to aggregate: the function, the vertex binding slot of
// the aggregated variable, and the property read from each matched vertex.
// Matches where the property is missing or non-integer are NULLs: they count
// toward Rows but contribute nothing to Sum/Min/Max/NonNull.
type AggSpec struct {
	Kind AggKind
	Slot int
	Prop string
}

// AggResult is an exactly mergeable aggregate accumulator. Min and Max are
// only meaningful when NonNull > 0.
type AggResult struct {
	// Rows is the number of matches (folded arithmetic included).
	Rows int64
	// Sum accumulates the property over non-null matches (AggSum).
	Sum int64
	// Min and Max are the property extrema over non-null matches.
	Min int64
	Max int64
	// NonNull is the number of matches with an integer property value.
	NonNull int64
}

// Merge folds another partition's result in. int64 sums and extrema are
// associative and commutative (sums even under wraparound), so merging
// per-worker, per-shard, or per-sub-morsel partials in any order yields the
// same result as a serial run.
func (r *AggResult) Merge(o AggResult) {
	r.Rows += o.Rows
	r.Sum += o.Sum
	if o.NonNull > 0 {
		if r.NonNull == 0 || o.Min < r.Min {
			r.Min = o.Min
		}
		if r.NonNull == 0 || o.Max > r.Max {
			r.Max = o.Max
		}
	}
	r.NonNull += o.NonNull
}

// observe accumulates one property value occurring in mult matches.
func (r *AggResult) observe(v int64, mult int64) {
	if mult <= 0 {
		return
	}
	if r.NonNull == 0 || v < r.Min {
		r.Min = v
	}
	if r.NonNull == 0 || v > r.Max {
		r.Max = v
	}
	r.Sum += v * mult
	r.NonNull += mult
}

// setAgg arms the pipeline's fold for one run and resets its accumulator.
// pl.stop must already hold the sink boundary: the aggregated slot's
// position relative to it decides between reading the bound value (once per
// boundary tuple, times the fold multiplicity) and scanning the folded list
// that binds it.
func (pl *pipeline) setAgg(spec AggSpec) {
	pl.agg = spec
	pl.aggRes = AggResult{}
	pl.aggSlotOp = -1
	if spec.Kind != AggCount {
		for j := pl.stop; j < len(pl.plan.Ops); j++ {
			if o, ok := pl.plan.Ops[j].(*ExtendIntersectOp); ok && o.TargetSlot == spec.Slot {
				pl.aggSlotOp = j
			}
		}
	}
}

// bindAgg resolves the aggregated property's column against the Runtime's
// graph. Only KindInt columns hold integer values.
func (pl *pipeline) bindAgg() {
	pl.aggCol = nil
	if pl.agg.Kind == AggCount {
		return
	}
	if col, ok := pl.rt.G.VertexColumn(pl.agg.Prop); ok && col.Kind == storage.KindInt {
		pl.aggCol = col
	}
}

// aggFold folds the plan suffix [pl.stop:) from the boundary binding into
// pl.aggRes and returns the number of matches it stands for: the product of
// the suffix's adjacency-list lengths. It charges exactly the i-cost
// enumeration would have — enumeration fetches suffix list j once per tuple
// produced by the lists before it. When the aggregated slot is bound by a
// folded operator, that list is fetched and scanned — its per-entry values
// each occur in total/len(list) matches; when it is bound before the
// boundary, the single bound value occurs in every match of the fold
// product. With a trace armed, each folded operator's fetch, i-cost share,
// and produced tuples land in its own span, recorded exclusively
// (Trace.Report subtracts them from the sink).
func (pl *pipeline) aggFold() int64 {
	rt, b, p, tr := pl.rt, pl.b, pl.plan, pl.tr
	total := int64(1)
	var nJ, cntJ, sumJ, minJ, maxJ int64
	for j := pl.stop; j < len(p.Ops); j++ {
		o := p.Ops[j].(*ExtendIntersectOp)
		var icost0, preds0 int64
		var t0 time.Time
		if tr != nil {
			icost0, preds0 = rt.ICost, rt.PredEvals
			t0 = time.Now()
		}
		var n int64
		if j == pl.aggSlotOp {
			n = pl.aggScanList(o, j, &cntJ, &sumJ, &minJ, &maxJ)
			nJ = n
		} else {
			n = int64(o.Lists[0].FetchLen(rt, b)) // charges the list once
		}
		rt.ICost += n * (total - 1) // the remaining fetches enumeration does
		total *= n
		if tr != nil {
			sp := &tr.spans[j]
			sp.Calls++
			sp.Nanos += int64(time.Since(t0))
			sp.ICost += rt.ICost - icost0
			sp.PredEvals += rt.PredEvals - preds0
			sp.Rows += total
		}
		if total == 0 {
			return 0 // enumeration never reaches the later lists
		}
	}
	if pl.agg.Kind == AggCount {
		pl.aggRes.Rows += total
	} else {
		pl.aggAccumulate(total, nJ, cntJ, sumJ, minJ, maxJ)
	}
	return total
}

// aggScanList fetches and decodes folded operator j's list (charging its
// length, exactly like FetchLen) and accumulates the aggregated property's
// stats over its entries. Returns the list length.
func (pl *pipeline) aggScanList(o *ExtendIntersectOp, j int, cntJ, sumJ, minJ, maxJ *int64) int64 {
	rt, b := pl.rt, pl.b
	r := &o.Lists[0]
	sc := pl.scratch.op(j)
	sc.ensureLists(1)
	sc.decode(0, r.fetchWith(rt, sc, 0, b, r.Codes))
	f := sc.lists[0]
	*cntJ, *sumJ, *minJ, *maxJ = 0, 0, 0, 0
	if col := pl.aggCol; col != nil {
		for _, nbr := range f.nbrs {
			v, ok := col.IntAt(int(nbr))
			if !ok {
				continue
			}
			if *cntJ == 0 || v < *minJ {
				*minJ = v
			}
			if *cntJ == 0 || v > *maxJ {
				*maxJ = v
			}
			*sumJ += v
			*cntJ++
		}
	}
	return int64(len(f.nbrs))
}

// aggAccumulate folds one boundary tuple's contribution into pl.aggRes.
// total is the tuple's match multiplicity (> 0); when the aggregated slot
// was bound by folded operator j, nJ/cntJ/sumJ/minJ/maxJ carry that list's
// scan stats and each entry occurs in total/nJ matches.
func (pl *pipeline) aggAccumulate(total, nJ, cntJ, sumJ, minJ, maxJ int64) {
	res := &pl.aggRes
	res.Rows += total
	if pl.aggSlotOp >= 0 {
		if cntJ == 0 {
			return
		}
		tOther := total / nJ
		if res.NonNull == 0 || minJ < res.Min {
			res.Min = minJ
		}
		if res.NonNull == 0 || maxJ > res.Max {
			res.Max = maxJ
		}
		res.Sum += sumJ * tOther
		res.NonNull += cntJ * tOther
		return
	}
	if pl.aggCol == nil {
		return
	}
	if v, ok := pl.aggCol.IntAt(int(pl.b.V[pl.agg.Slot])); ok {
		res.observe(v, total)
	}
}

// Aggregate executes the plan and returns the aggregate over all matches,
// folding the trailing pure-EXTEND suffix (see Count): the match count
// (AggResult.Rows) and the accumulated i-cost are bit-identical to full
// enumeration.
func (p *Plan) Aggregate(rt *Runtime, spec AggSpec) AggResult {
	return rt.pipelineFor(p).run(p.countFoldStart(), nil, spec)
}

// AggregateParallel executes the aggregate with a morsel-driven worker
// pool. Each worker runs the operator pipeline (with the same fold as the
// serial path) over its own Binding, Runtime and Scratch arena; per-worker partials merge exactly and ICost/PredEvals are
// merged into rt after the barrier. Because every morsel is processed
// exactly once, the counters are sums, and folding charges the i-cost
// enumeration would have, the result and merged metrics are bit-identical
// to the serial path regardless of worker count. Plans whose root operator
// is not partitionable fall back to the serial path.
//
// A panic inside a worker (or the serial fallback) is recovered, converted
// to a *PanicError carrying the panicking goroutine's stack, and returned
// after the whole pool has drained; the first panic wins. When rt.Gov is
// set, workers additionally poll it at every morsel boundary and every
// Governor.CheckEvery sink tuples — a tripped governor parks the pool and
// AggregateParallel returns the partial result with a nil error; the
// caller inspects Governor.Reason to map the trip to its own error type.
func (p *Plan) AggregateParallel(rt *Runtime, o ParallelOptions, spec AggSpec) (AggResult, error) {
	return p.aggregateParallelStop(rt, o, spec, p.countFoldStart())
}

// aggregateParallelStop is AggregateParallel with an explicit sink boundary
// so parity tests can force full enumeration (stop == len(Ops)).
func (p *Plan) aggregateParallelStop(rt *Runtime, o ParallelOptions, spec AggSpec, stop int) (AggResult, error) {
	return p.runParallel(rt, o, stop, spec, nil)
}
