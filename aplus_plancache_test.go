package aplus

// Integration tests for the compiled-plan cache on the embedded read path:
// repeated and alternating query texts must hit, layout-only differences
// must share an entry, and any event that publishes a new index store
// (fold, DDL) must invalidate exactly once — a hit always returns the plan
// a fresh compile would have produced.

import (
	"strings"
	"testing"
)

func planCacheGraph(t *testing.T) *DB {
	t.Helper()
	db := New()
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := db.AddVertex("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			if _, err := db.AddEdge(VertexID(i), VertexID((i+d)%n), "K", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestPlanCacheHitsAndAlternation(t *testing.T) {
	db := planCacheGraph(t)
	q1 := "MATCH a-[e]->b"
	q2 := "MATCH a-[e]->b, b-[f]->c"
	n1, err := db.Count(q1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := db.Count(q2)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PlanCacheHits != 0 || st.PlanCacheMisses != 2 || st.PlanCacheEntries != 2 {
		t.Fatalf("after cold runs: %+v", pcTriple(st))
	}
	// Alternating texts must all hit (the old last-pipeline cache only kept
	// the immediately-previous plan warm).
	for i := 0; i < 3; i++ {
		if got, err := db.Count(q1); err != nil || got != n1 {
			t.Fatalf("q1: %d, %v (want %d)", got, err, n1)
		}
		if got, err := db.Count(q2); err != nil || got != n2 {
			t.Fatalf("q2: %d, %v (want %d)", got, err, n2)
		}
	}
	st = db.Stats()
	if st.PlanCacheHits != 6 || st.PlanCacheMisses != 2 {
		t.Fatalf("after alternation: %+v", pcTriple(st))
	}
}

func TestPlanCacheNormalizedKey(t *testing.T) {
	db := planCacheGraph(t)
	if _, err := db.Count("MATCH a-[e]->b"); err != nil {
		t.Fatal(err)
	}
	// Same query, different layout: must share the entry.
	if _, err := db.Count("  MATCH\t a-[e]->b \n"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 1 || st.PlanCacheEntries != 1 {
		t.Fatalf("normalized key: %+v", pcTriple(st))
	}
}

func TestPlanCacheInvalidatedByWriteAndFold(t *testing.T) {
	db := planCacheGraph(t)
	q := "MATCH a-[e]->b"
	before, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	// A committed write leaves the store unchanged (delta overlay) but the
	// delta-pending planner mode is part of the key: the next read misses
	// once, then hits, and sees the new edge.
	if _, err := db.AddEdge(0, 5, "K", nil); err != nil {
		t.Fatal(err)
	}
	got, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != before+1 {
		t.Fatalf("count after write: %d, want %d", got, before+1)
	}
	// Folding publishes a new store: the generation flips, so the next read
	// compiles fresh against the folded indexes and still sees the edge.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != before+1 {
		t.Fatalf("count after fold: %d, want %d", got, before+1)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db := planCacheGraph(t)
	q := "MATCH a-[e]->b WHERE e.w > 0"
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	hitsBefore := db.Stats().PlanCacheHits
	if hitsBefore == 0 {
		t.Fatal("expected a warm hit before DDL")
	}
	// DDL publishes a new store; the cached plan must not be reused (it
	// may now be beaten by the new index, and its pointers are stale).
	if err := db.Exec("CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX AS FW PARTITION BY eadj.label"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PlanCacheHits != hitsBefore {
		t.Fatalf("hit served across DDL: hits %d -> %d", hitsBefore, st.PlanCacheHits)
	}
	// The re-compiled plan should now use the secondary view.
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "V") {
		t.Logf("plan after DDL (no view chosen, acceptable if costed out):\n%s", plan)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := planCacheGraph(t)
	db.PlanCacheSize = -1
	for i := 0; i < 3; i++ {
		if _, err := db.Count("MATCH a-[e]->b"); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 || st.PlanCacheEntries != 0 {
		t.Fatalf("disabled cache counted: %+v", pcTriple(st))
	}
}

func pcTriple(st Stats) [3]int64 {
	return [3]int64{st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEntries}
}

// TestPlanCacheHitOverClonedColumns: a plan cached while a delta is pending
// is served again over later snapshots, whose graphs are copy-on-write
// clones with cloned property columns (new values, a string the cached
// plan's first snapshot never interned). Each execution binds the plan's
// predicates to its own snapshot's columns, so the hit counts exactly what
// the same text counts after the fold.
func TestPlanCacheHitOverClonedColumns(t *testing.T) {
	db := New()
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := db.AddVertex("P", Props{"c": []string{"x", "y"}[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := db.AddEdge(VertexID(i), VertexID((i+1)%n), "K", Props{"w": i}); err != nil {
			t.Fatal(err)
		}
	}
	q := "MATCH a-[e]->b WHERE e.w > 10, b.c = 'x'"
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	// The first write switches the planner to delta-pending mode (one miss);
	// the plan compiled then is cached for the rest of the delta's life.
	if _, err := db.AddEdge(0, 2, "K", Props{"w": 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.AddVertex("P", Props{"c": "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.AddEdge(VertexID(i), VertexID(2*i%n), "K", Props{"w": 8 + i}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddEdge(fresh, VertexID(2*i%n), "K", Props{"w": 20 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().PendingWrites == 0 {
		t.Fatal("delta unexpectedly folded")
	}
	hits := db.Stats().PlanCacheHits
	delta, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().PlanCacheHits != hits+1 {
		t.Fatal("the delta-snapshot read did not hit the plan cache")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	folded, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if delta != folded || delta == 0 {
		t.Fatalf("cached plan over the delta snapshot counted %d, after the fold %d", delta, folded)
	}
}
