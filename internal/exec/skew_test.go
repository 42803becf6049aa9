package exec

// Parallel execution at skew: one super-hub vertex whose adjacency list
// dwarfs the morsel size makes the morsel that draws it far heavier than the
// rest. The bit-identical oracle must hold regardless — counts, i-cost, and
// PredEvals identical to the serial run at any worker count, over base and
// delta-spliced phases; aggregate folds agree with enumeration; traced runs
// keep per-operator span sums identical to the serial run; and the pool's
// own coordination stays a small fixed number of allocations per run.

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// hubGraph builds a sparse background graph plus one super-hub: vertex 0
// carries hubDeg extra out-edges, dwarfing any morsel-sized root partition.
// Vertices get an integer "score" property with every fourth one NULL, so
// aggregate tests exercise null handling on both fold branches.
func hubGraph(t testing.TB, hubDeg int) *storage.Graph {
	t.Helper()
	g := storage.NewGraph()
	const nv = 64
	g.AddVertices(nv, "A")
	for v := 0; v < nv; v++ {
		if _, err := g.AddEdge(storage.VertexID(v), storage.VertexID((v*7+3)%nv), "W"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge(storage.VertexID(v), storage.VertexID((v*13+5)%nv), "W"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hubDeg; i++ {
		if _, err := g.AddEdge(0, storage.VertexID((i*11+1)%nv), "W"); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < nv; v++ {
		if v%4 == 3 {
			continue // NULL: missing property
		}
		if err := g.SetVertexProp(storage.VertexID(v), "score", storage.Int(int64(v*v%97-30))); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func hubStore(t testing.TB, hubDeg int) *index.Store {
	t.Helper()
	s, err := index.NewStore(hubGraph(t, hubDeg), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hubPlan is the 2-hop path count: scan a0, extend a1, extend a2. Operator 1
// expands the hub's list; operator 2 is the fold suffix, so the skewed
// morsel and count (or aggregate) pushdown compose on the same run.
func hubPlan() *Plan {
	return &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
		},
	}
}

// hubDeltaParts builds the hub store plus a non-empty delta overlay (hub
// growth, background churn, two base-edge deletes), returning the parts so
// each configuration can run over a fresh NewRuntimeOver.
func hubDeltaParts(t *testing.T, hubDeg int) (*index.Store, *storage.Graph, *index.Delta) {
	t.Helper()
	g := hubGraph(t, hubDeg)
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	b := index.NewDeltaBuilder(index.NewDelta(), s.Primary(), g2)
	for i := 0; i < 300; i++ {
		e, err := g2.AddEdge(0, storage.VertexID((i*5+2)%64), "W")
		if err != nil {
			t.Fatal(err)
		}
		b.Insert(e)
	}
	for v := 1; v < 64; v += 3 {
		e, err := g2.AddEdge(storage.VertexID(v), storage.VertexID((v+9)%64), "W")
		if err != nil {
			t.Fatal(err)
		}
		b.Insert(e)
	}
	b.Delete(storage.EdgeID(5))
	b.Delete(storage.EdgeID(40))
	if b.Impossible() {
		t.Fatal("delta unexpectedly unbufferable")
	}
	d := b.Freeze()
	if d.Empty() {
		t.Fatal("delta unexpectedly empty")
	}
	return s, g2, d
}

// skewConfigs is the parity grid: every worker count at a morsel size small
// enough that the 64-vertex root scan splits into eight morsels, one of
// which carries the hub.
func skewConfigs() []ParallelOptions {
	var cfgs []ParallelOptions
	for _, workers := range []int{1, 4, 8} {
		cfgs = append(cfgs, ParallelOptions{Workers: workers, MorselSize: 8})
	}
	return cfgs
}

func TestSkewParityAcrossWorkers(t *testing.T) {
	s := hubStore(t, 4096)
	plan := hubPlan()
	serial := NewRuntime(s)
	want := plan.Count(serial)
	if want == 0 {
		t.Fatal("degenerate skew test: no matches")
	}
	for _, o := range skewConfigs() {
		rt := NewRuntime(s)
		got, err := plan.CountParallel(rt, o)
		if err != nil {
			t.Fatalf("%+v: CountParallel: %v", o, err)
		}
		if got != want {
			t.Errorf("%+v: count = %d, want %d", o, got, want)
		}
		if rt.ICost != serial.ICost || rt.PredEvals != serial.PredEvals {
			t.Errorf("%+v: metrics (%d,%d), serial (%d,%d)",
				o, rt.ICost, rt.PredEvals, serial.ICost, serial.PredEvals)
		}
	}
}

// TestSkewParityDeltaSplice is the same grid over a snapshot state with a
// non-empty delta: the hub's list is delta-spliced too.
func TestSkewParityDeltaSplice(t *testing.T) {
	s, g2, d := hubDeltaParts(t, 2048)
	plan := hubPlan()
	serial := NewRuntimeOver(s, g2, d)
	want := plan.Count(serial)
	if want == 0 {
		t.Fatal("degenerate skew test: no matches")
	}
	for _, o := range skewConfigs() {
		rt := NewRuntimeOver(s, g2, d)
		got, err := plan.CountParallel(rt, o)
		if err != nil {
			t.Fatalf("%+v: CountParallel: %v", o, err)
		}
		if got != want {
			t.Errorf("%+v: count = %d, want %d", o, got, want)
		}
		if rt.ICost != serial.ICost || rt.PredEvals != serial.PredEvals {
			t.Errorf("%+v: metrics (%d,%d), serial (%d,%d)",
				o, rt.ICost, rt.PredEvals, serial.ICost, serial.PredEvals)
		}
	}
}

// TestAggregateParallelParity pins the aggregate oracle on every function
// and both fold branches (aggregated slot bound before the boundary vs
// bound by a folded operator): the serial fold, the parallel fold at any
// worker count, and full enumeration must agree
// exactly — values, row counts, null counts, and i-cost.
func TestAggregateParallelParity(t *testing.T) {
	s := hubStore(t, 1024)
	plan := hubPlan()
	if plan.countFoldStart() >= len(plan.Ops) {
		t.Fatal("fold suffix not recognized")
	}
	for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
		for _, slot := range []int{1, 2} {
			spec := AggSpec{Kind: kind, Slot: slot, Prop: "score"}
			serial := NewRuntime(s)
			want := plan.Aggregate(serial, spec)
			if want.Rows == 0 {
				t.Fatal("degenerate aggregate test: no matches")
			}
			if kind != AggCount && want.NonNull == 0 {
				t.Fatal("degenerate aggregate test: all NULLs")
			}
			rtEnum := NewRuntime(s)
			enum, err := plan.aggregateParallelStop(rtEnum, ParallelOptions{Workers: 1}, spec, len(plan.Ops))
			if err != nil {
				t.Fatalf("%v slot %d: enumerate: %v", kind, slot, err)
			}
			if enum != want {
				t.Errorf("%v slot %d: enumerated %+v, folded %+v", kind, slot, enum, want)
			}
			if rtEnum.ICost != serial.ICost {
				t.Errorf("%v slot %d: enumerated i-cost %d, folded %d", kind, slot, rtEnum.ICost, serial.ICost)
			}
			for _, o := range skewConfigs() {
				rt := NewRuntime(s)
				got, err := plan.AggregateParallel(rt, o, spec)
				if err != nil {
					t.Fatalf("%v slot %d %+v: AggregateParallel: %v", kind, slot, o, err)
				}
				if got != want {
					t.Errorf("%v slot %d %+v: got %+v, want %+v", kind, slot, o, got, want)
				}
				if rt.ICost != serial.ICost || rt.PredEvals != serial.PredEvals {
					t.Errorf("%v slot %d %+v: metrics (%d,%d), serial (%d,%d)",
						kind, slot, o, rt.ICost, rt.PredEvals, serial.ICost, serial.PredEvals)
				}
				// Parallel enumeration agrees too.
				rt2 := NewRuntime(s)
				got2, err := plan.aggregateParallelStop(rt2, o, spec, len(plan.Ops))
				if err != nil {
					t.Fatalf("%v slot %d %+v: parallel enumerate: %v", kind, slot, o, err)
				}
				if got2 != want || rt2.ICost != serial.ICost {
					t.Errorf("%v slot %d %+v: parallel enumerated %+v (icost %d), want %+v (icost %d)",
						kind, slot, o, got2, rt2.ICost, want, serial.ICost)
				}
			}
		}
	}
}

// TestAggregateDeltaParity runs the aggregate oracle over the delta phase.
func TestAggregateDeltaParity(t *testing.T) {
	s, g2, d := hubDeltaParts(t, 1024)
	plan := hubPlan()
	spec := AggSpec{Kind: AggSum, Slot: 2, Prop: "score"}
	serial := NewRuntimeOver(s, g2, d)
	want := plan.Aggregate(serial, spec)
	if want.Rows == 0 || want.NonNull == 0 {
		t.Fatal("degenerate delta aggregate test")
	}
	for _, o := range skewConfigs() {
		rt := NewRuntimeOver(s, g2, d)
		got, err := plan.AggregateParallel(rt, o, spec)
		if err != nil {
			t.Fatalf("%+v: AggregateParallel: %v", o, err)
		}
		if got != want || rt.ICost != serial.ICost {
			t.Errorf("%+v: got %+v (icost %d), want %+v (icost %d)", o, got, rt.ICost, want, serial.ICost)
		}
	}
	rtEnum := NewRuntimeOver(s, g2, d)
	enum, err := plan.aggregateParallelStop(rtEnum, ParallelOptions{Workers: 8, MorselSize: 8}, spec, len(plan.Ops))
	if err != nil {
		t.Fatal(err)
	}
	if enum != want || rtEnum.ICost != serial.ICost {
		t.Errorf("enumerated %+v (icost %d), folded %+v (icost %d)", enum, rtEnum.ICost, want, serial.ICost)
	}
}

// TestZeroAllocAggregateFold pins the aggregate sink's allocation contract
// on both fold branches: a warm Aggregate run is allocation-free.
func TestZeroAllocAggregateFold(t *testing.T) {
	s := hubStore(t, 256)
	plan := hubPlan()
	for _, spec := range []AggSpec{
		{Kind: AggSum, Slot: 2, Prop: "score"}, // slot bound by a folded operator
		{Kind: AggMin, Slot: 1, Prop: "score"}, // slot bound before the boundary
	} {
		rt := NewRuntime(s)
		want := plan.Aggregate(rt, spec) // warm: compile pipeline, grow scratch
		if want.Rows == 0 || want.NonNull == 0 {
			t.Fatal("degenerate zero-alloc aggregate test")
		}
		allocs := testing.AllocsPerRun(10, func() {
			if got := plan.Aggregate(rt, spec); got != want {
				t.Fatalf("aggregate changed across runs: %+v vs %+v", got, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state Aggregate allocated %.1f times per run, want 0", spec.Kind, allocs)
		}
	}
}

// TestSkewTraceAttribution pins a traced 8-worker run at skew: span sums
// equal the totals, per-operator spans — including call counts below the
// root — stay bit-identical to the serial traced run, and the per-worker
// split sums to the profiled totals.
func TestSkewTraceAttribution(t *testing.T) {
	s := hubStore(t, 4096)
	plan := hubPlan()
	ref := NewRuntime(s)
	wantN := plan.Count(ref)

	rt1 := NewRuntime(s)
	rt1.Trace = &Trace{}
	n1, err := plan.CountParallel(rt1, ParallelOptions{Workers: 1, MorselSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != wantN {
		t.Fatalf("serial traced count %d, untraced %d", n1, wantN)
	}
	base := rt1.Trace.Report()

	rt := NewRuntime(s)
	rt.Trace = &Trace{}
	n, err := plan.CountParallel(rt, ParallelOptions{Workers: 8, MorselSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n != wantN || rt.ICost != ref.ICost || rt.PredEvals != ref.PredEvals {
		t.Fatalf("parallel run (%d, %d, %d) != reference (%d, %d, %d)",
			n, rt.ICost, rt.PredEvals, wantN, ref.ICost, ref.PredEvals)
	}
	tr := rt.Trace
	spans := tr.Report()
	_, _, icost, preds, _ := spanTotals(spans)
	if icost != rt.ICost || preds != rt.PredEvals {
		t.Fatalf("span sums (%d,%d) != totals (%d,%d)", icost, preds, rt.ICost, rt.PredEvals)
	}
	for i := range spans {
		if spans[i].ICost != base[i].ICost || spans[i].PredEvals != base[i].PredEvals || spans[i].Rows != base[i].Rows {
			t.Fatalf("op %d: parallel span %+v, serial %+v", i, spans[i], base[i])
		}
		if i > 0 && spans[i].Calls != base[i].Calls {
			t.Fatalf("op %d: parallel calls %d, serial %d", i, spans[i].Calls, base[i].Calls)
		}
	}
	var wRows, wICost, wPreds int64
	for _, w := range tr.Workers {
		wRows += w.Rows
		wICost += w.ICost
		wPreds += w.PredEvals
	}
	if wRows != wantN || wICost != rt.ICost || wPreds != rt.PredEvals {
		t.Fatalf("worker split sums (%d,%d,%d) != (%d,%d,%d)", wRows, wICost, wPreds, wantN, rt.ICost, rt.PredEvals)
	}
}

// poolAllocBound caps the allocations of one warm 2-worker CountParallel:
// per-run worker Runtimes and their pipelines, the worker goroutines, and
// the merge. A per-run structure sized by anything but the plan (a queue,
// a buffer per morsel) breaks it.
const poolAllocBound = 128

// TestPoolCoordinationAllocs pins the worker pool's coordination cost: a
// warm 2-worker CountParallel over the hub fixture allocates at most
// poolAllocBound objects, however skewed the morsels.
func TestPoolCoordinationAllocs(t *testing.T) {
	s := hubStore(t, 2048)
	plan := hubPlan()
	rt := NewRuntime(s)
	o := ParallelOptions{Workers: 2, MorselSize: 8}
	want, err := plan.CountParallel(rt, o) // warm: plan-level state, store caches
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		got, err := plan.CountParallel(rt, o)
		if err != nil || got != want {
			t.Fatalf("CountParallel = %d, %v; want %d", got, err, want)
		}
	})
	if allocs > poolAllocBound {
		t.Errorf("warm 2-worker CountParallel allocated %.0f times per run, want <= %d", allocs, poolAllocBound)
	}
}
