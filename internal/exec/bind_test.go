package exec

// Stale-binding tests: plans name properties, never columns, and every
// execution rebinds them to its Runtime's graph. A cached pipeline or a
// cached plan must therefore count exactly what a fresh one does after the
// graph under it gained a column or moved to a copy-on-write snapshot.

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// weightFilterPlan matches a0-[e0]->a1 with e0.w >= min and a1.c = city.
func weightFilterPlan(min int64, city string) *Plan {
	return &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
			}}},
			&FilterOp{Terms: []CompiledTerm{
				{Left: EdgeOperand(0, "w"), Op: pred.GE, Right: ConstOperand(storage.Int(min))},
				{Left: VertexOperand(1, "c"), Op: pred.EQ, Right: ConstOperand(storage.Str(city))},
			}},
		},
	}
}

// countByHand is the storage-level oracle for weightFilterPlan.
func countByHand(g *storage.Graph, min int64, city string) int64 {
	var n int64
	for i := 0; i < g.NumEdges(); i++ {
		e := storage.EdgeID(i)
		if g.EdgeDeleted(e) {
			continue
		}
		w, c := g.EdgeProp(e, "w"), g.VertexProp(g.Dst(e), "c")
		if w.Kind == storage.KindInt && w.I >= min && c.Kind == storage.KindString && c.S == city {
			n++
		}
	}
	return n
}

// TestCachedPipelineSeesNewColumn: a Runtime over a mutable store keeps its
// compiled pipeline across executions; after an insert creates the filtered
// column, re-executing must count (and evaluate predicates) exactly like a
// fresh Runtime.
func TestCachedPipelineSeesNewColumn(t *testing.T) {
	g := allocGraph(t)
	for v := 0; v < g.NumVertices(); v++ {
		if err := g.SetVertexProp(storage.VertexID(v), "c", storage.Str([]string{"x", "y"}[v%2])); err != nil {
			t.Fatal(err)
		}
	}
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := weightFilterPlan(2, "x")
	rt := NewRuntime(s)
	if got := plan.Count(rt); got != 0 {
		t.Fatalf("count before the w column exists = %d, want 0", got)
	}
	for i := 0; i < 6; i++ {
		props := map[string]storage.Value{"w": storage.Int(int64(i))}
		if _, err := s.InsertEdge(storage.VertexID(i), storage.VertexID(2*i%32), "W", props); err != nil {
			t.Fatal(err)
		}
	}
	want := countByHand(g, 2, "x")
	if want == 0 {
		t.Fatal("degenerate test: no matches after the inserts")
	}
	rt.PredEvals = 0
	got := plan.Count(rt)
	fresh := NewRuntime(s)
	if wantFresh := plan.Count(fresh); got != want || wantFresh != want {
		t.Fatalf("cached pipeline %d, fresh runtime %d, by hand %d", got, wantFresh, want)
	}
	if rt.PredEvals != fresh.PredEvals {
		t.Fatalf("PredEvals: cached pipeline %d, fresh runtime %d", rt.PredEvals, fresh.PredEvals)
	}
}

// TestCachedPlanOverClonedColumns: one plan runs over the frozen base, over
// a snapshot whose graph is a copy-on-write clone with cloned columns (new
// edges and values, a string the base dictionary never saw) and a delta
// overlay, and over the folded successor store. The snapshot and the fold
// must agree with each other and with a by-hand count.
func TestCachedPlanOverClonedColumns(t *testing.T) {
	g := allocGraph(t)
	for v := 0; v < g.NumVertices(); v++ {
		if err := g.SetVertexProp(storage.VertexID(v), "c", storage.Str([]string{"x", "y", "z"}[v%3])); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if err := g.SetEdgeProp(storage.EdgeID(e), "w", storage.Int(int64(e%7))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := weightFilterPlan(4, "x")
	if got, want := plan.Count(NewRuntime(s)), countByHand(g, 4, "x"); got != want {
		t.Fatalf("base count %d, by hand %d", got, want)
	}

	g2 := g.Clone()
	b := index.NewDeltaBuilder(index.NewDelta(), s.Primary(), g2)
	nv := g2.AddVertex("A")
	if err := g2.SetVertexProp(nv, "c", storage.Str("x")); err != nil {
		t.Fatal(err)
	}
	if err := g2.SetVertexProp(g2.AddVertex("A"), "c", storage.Str("fresh")); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32; v += 3 {
		e, err := g2.AddEdge(storage.VertexID(v), nv, "W")
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.SetEdgeProp(e, "w", storage.Int(int64(v%9))); err != nil {
			t.Fatal(err)
		}
		b.Insert(e)
	}
	if b.Impossible() {
		t.Fatal("delta unexpectedly unbufferable")
	}
	d := b.Freeze()
	want := countByHand(g2, 4, "x")
	delta := plan.Count(NewRuntimeOver(s, g2, d))
	folded, ok := s.CloneIncremental(g2, d)
	if !ok {
		t.Fatal("incremental fold declined")
	}
	fold := plan.Count(NewRuntime(folded))
	if delta != want || fold != want {
		t.Fatalf("delta snapshot %d, folded %d, by hand %d", delta, fold, want)
	}
}
