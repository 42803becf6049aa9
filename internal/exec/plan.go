package exec

import (
	"fmt"
	"strings"
	"time"

	"github.com/aplusdb/aplus/internal/storage"
)

// Plan is a linear pipeline of physical operators producing complete
// matches of a query graph.
type Plan struct {
	Ops []Op
	// NumV and NumE size the binding.
	NumV, NumE int
	// VertexNames and EdgeNames map binding slots back to query variables
	// (for explanations and result rendering).
	VertexNames []string
	EdgeNames   []string
	// EstimatedICost is the optimizer's cost estimate for the plan.
	EstimatedICost float64
}

// pipeline is a plan compiled against one Runtime: the reusable binding,
// the operator scratch arena, and a closure chain built once so that the
// per-tuple path performs no allocations (the previous implementation
// rebuilt a closure per operator invocation). A Runtime caches the pipeline
// of the last plan it executed, so repeated Count/Execute calls on a warm
// Runtime are allocation-free.
type pipeline struct {
	plan *Plan
	rt   *Runtime
	b    *Binding
	// scratch is this pipeline's arena of per-operator buffers. It lives on
	// the pipeline rather than the Runtime because a Runtime may cache
	// pipelines for several plans with different operator counts; buffers
	// are only ever reused by re-executions of the same plan.
	scratch Scratch
	// next[i] runs operators i.. and then the sink; next[i] is passed as
	// the continuation of operator i-1.
	next []func() bool
	// stop is the operator index where the sink takes over: len(Ops) for
	// full enumeration, the fold boundary for pushed-down aggregation.
	stop int
	// emit is the enumeration sink; nil selects the aggregate fold.
	emit func(*Binding) bool

	// Aggregate fold state (see agg.go): agg is the armed spec, aggSlotOp
	// the folded operator binding the aggregated slot (-1 when it is bound
	// before the boundary, and always for AggCount), and aggRes the run's
	// accumulator. COUNT is the AggCount case: aggRes.Rows is the count.
	agg       AggSpec
	aggSlotOp int
	aggRes    AggResult
	// aggCol is the aggregated property's column, bound per execution;
	// nil when the graph has no KindInt column of that name, so every
	// match is a NULL.
	aggCol *storage.Column

	// Governance state (all zero when rt.Gov is nil): govEvery is the
	// flush interval in sink tuples, govTuples counts tuples since the last
	// flush, govRows the rows produced since, and govICostBase the rt.ICost
	// watermark already published to the governor.
	govEvery     int
	govTuples    int
	govRows      int64
	govICostBase int64

	// tr mirrors rt.Trace for the duration of one run (nil = disarmed).
	// It is re-latched by beginRun so a cached pipeline never keeps tracing
	// an execution that no longer asks for it.
	tr *Trace
}

// beginRun re-arms the pipeline for one execution. It must run after
// pipelineFor and setAgg and before step(0). It rebinds every operator's
// predicate terms and sort keys to the Runtime's graph — the cached
// pipeline may last have run before that graph gained a property column —
// into the ops' scratch slots, which reuse their backing arrays. And it
// re-arms governance: the pipeline may have been built for an earlier
// execution with a different (or no) governor, and the i-cost watermark
// must start at the Runtime's current accumulator value.
func (pl *pipeline) beginRun() {
	g := pl.rt.G
	for i, op := range pl.plan.Ops {
		op.bind(g, pl.scratch.op(i))
	}
	pl.bindAgg()
	pl.tr = pl.rt.Trace
	if pl.tr != nil {
		pl.tr.arm(len(pl.plan.Ops), pl.stop)
	}
	gov := pl.rt.Gov
	if gov == nil {
		pl.govEvery = 0
		return
	}
	pl.govEvery = gov.checkEvery()
	pl.govTuples = 0
	pl.govRows = 0
	pl.govICostBase = pl.rt.ICost
}

// govFlush publishes the pipeline's locally accumulated i-cost and row
// counters to the governor, enforces the budgets, and reports whether the
// execution may continue. It performs no allocations.
func (pl *pipeline) govFlush() bool {
	g := pl.rt.Gov
	pl.govTuples = 0
	if ic := pl.rt.ICost - pl.govICostBase; ic != 0 {
		pl.govICostBase = pl.rt.ICost
		g.addICost(ic)
	}
	if pl.govRows != 0 {
		g.addRows(pl.govRows)
		pl.govRows = 0
	}
	return !g.stop.Load()
}

// maxCachedPipelines bounds the per-Runtime pipeline cache. The working
// set is expected to be tiny (a Runtime usually serves one or a handful of
// cached plans); on overflow the whole map is dropped rather than tracking
// recency — rebuilding a pipeline is cheap next to compiling its plan.
const maxCachedPipelines = 64

// pipelineFor returns the Runtime's cached pipeline for p, building it on
// first use. The most recent plan hits a single pointer compare; older
// plans hit the per-plan map, so alternating query texts stay warm too.
func (rt *Runtime) pipelineFor(p *Plan) *pipeline {
	if rt.pipe != nil && rt.pipe.plan == p {
		return rt.pipe
	}
	if pl, ok := rt.pipes[p]; ok {
		rt.pipe = pl
		return pl
	}
	pl := &pipeline{plan: p, rt: rt, b: NewBinding(p.NumV, p.NumE)}
	pl.scratch.reset(len(p.Ops))
	pl.next = make([]func() bool, len(p.Ops)+1)
	for i := 1; i <= len(p.Ops); i++ {
		i := i
		pl.next[i] = func() bool { return pl.step(i) }
	}
	if rt.pipes == nil {
		rt.pipes = make(map[*Plan]*pipeline, 4)
	} else if len(rt.pipes) >= maxCachedPipelines {
		clear(rt.pipes)
	}
	rt.pipes[p] = pl
	rt.pipe = pl
	return pl
}

// step runs operators i.. of the pipeline, or the sink once i reaches the
// stop boundary. With tracing disarmed (the steady state) the only added
// cost is the nil test; stepTraced adds the span measurement around the
// same operator call.
func (pl *pipeline) step(i int) bool {
	if pl.tr != nil {
		return pl.stepTraced(i)
	}
	if i >= pl.stop {
		return pl.sink()
	}
	return pl.plan.Ops[i].run(pl.rt, pl.scratch.op(i), pl.b, pl.next[i+1])
}

// stepTraced is step with span recording: it accumulates the operator's
// invocation count and its inclusive wall-time/i-cost/predicate deltas
// (operators run their continuation in-line, so a span covers the whole
// downstream chain; Trace.Report telescopes the exclusive figures back
// out). The sink's span is the final slot.
func (pl *pipeline) stepTraced(i int) bool {
	idx := i
	if i >= pl.stop {
		idx = len(pl.plan.Ops)
	}
	sp := &pl.tr.spans[idx]
	sp.Calls++
	icost0, preds0 := pl.rt.ICost, pl.rt.PredEvals
	t0 := time.Now()
	var ok bool
	if i >= pl.stop {
		ok = pl.sink()
	} else {
		ok = pl.plan.Ops[i].run(pl.rt, pl.scratch.op(i), pl.b, pl.next[i+1])
	}
	sp.Nanos += int64(time.Since(t0))
	sp.ICost += pl.rt.ICost - icost0
	sp.PredEvals += pl.rt.PredEvals - preds0
	return ok
}

// sink consumes one boundary tuple: enumeration hands it to emit, otherwise
// aggFold folds the remaining pure-EXTEND suffix (possibly empty) into the
// aggregate. With a governor attached it also ticks the cancel/budget check
// every govEvery tuples, so even a single hub-dominated morsel observes a
// trip within a bounded number of produced rows.
func (pl *pipeline) sink() bool {
	var rows int64
	if pl.emit != nil {
		if !pl.emit(pl.b) {
			return false
		}
		rows = 1
	} else {
		rows = pl.aggFold()
	}
	if pl.tr != nil {
		pl.tr.spans[len(pl.plan.Ops)].Rows += rows
	}
	if pl.govEvery == 0 {
		return true
	}
	pl.govRows += rows
	pl.govTuples++
	if pl.govTuples < pl.govEvery {
		return true
	}
	return pl.govFlush()
}

// run executes the pipeline once with the sink at stop: a non-nil emit
// enumerates every match into it, a nil emit folds spec. It returns the
// fold's accumulator (zero for enumeration).
func (pl *pipeline) run(stop int, emit func(*Binding) bool, spec AggSpec) AggResult {
	pl.stop, pl.emit = stop, emit
	pl.setAgg(spec)
	pl.beginRun()
	pl.step(0)
	if pl.govEvery != 0 {
		pl.govFlush()
	}
	pl.emit = nil
	return pl.aggRes
}

// Execute streams complete matches into emit; returning false from emit
// stops execution early. The binding passed to emit is reused — copy it if
// retaining. A Runtime must not execute two plans concurrently; the
// morsel-parallel path gives each worker its own Runtime.
func (p *Plan) Execute(rt *Runtime, emit func(*Binding) bool) {
	rt.pipelineFor(p).run(len(p.Ops), emit, AggSpec{})
}

// Count executes the plan and returns the number of matches: the AggCount
// case of Aggregate. When the plan ends in pure unfiltered EXTENDs over
// slots bound earlier, the fold multiplies adjacency-list lengths at that
// boundary instead of enumerating bindings (count pushdown): the count and
// the accumulated i-cost are bit-identical to enumeration, with orders of
// magnitude fewer operator invocations on star/fan-out queries.
func (p *Plan) Count(rt *Runtime) int64 {
	return p.Aggregate(rt, AggSpec{Kind: AggCount}).Rows
}

// countFoldStart returns the start of the longest plan suffix consisting
// solely of pure unfiltered EXTENDs (one list, no sorted segment) whose
// owner slots are all bound before the suffix, so no suffix operator
// consumes another's output. Counting folds that suffix into a product of
// list lengths. len(p.Ops) means no folding applies; the suffix never
// includes operator 0 (the root scan is partitioned, not folded).
func (p *Plan) countFoldStart() int {
	start := len(p.Ops)
	for start > 1 {
		op, ok := p.Ops[start-1].(*ExtendIntersectOp)
		if !ok || len(op.Lists) != 1 || op.Lists[0].Seg != nil {
			break
		}
		// Nothing already in the suffix may read a slot this op binds.
		dep := false
		for _, later := range p.Ops[start:] {
			r := &later.(*ExtendIntersectOp).Lists[0]
			if r.Kind == ListEP {
				if r.OwnerEdgeSlot == op.Lists[0].EdgeSlot {
					dep = true
					break
				}
			} else if r.OwnerVertexSlot == op.TargetSlot {
				dep = true
				break
			}
		}
		if dep {
			break
		}
		start--
	}
	return start
}

// OpNames returns each operator's rendered description in pipeline order
// (the per-line bodies of Explain), for trace rendering.
func (p *Plan) OpNames() []string {
	names := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		names[i] = op.explain()
	}
	return names
}

// Explain renders the pipeline, one operator per line.
func (p *Plan) Explain() string {
	var b strings.Builder
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "%2d. %s\n", i+1, op.explain())
	}
	return b.String()
}
