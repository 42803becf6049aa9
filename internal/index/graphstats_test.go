package index_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/aplusdb/aplus/internal/enc"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/storage"
)

// statsGraph builds a small labelled multigraph with an int edge property
// (for the 2-hop view predicate) and a degree-skewed hub at vertex 0.
func statsGraph(nv, ne int, rng *rand.Rand) *storage.Graph {
	g := storage.NewGraph()
	for i := 0; i < nv; i++ {
		g.AddVertex([]string{"A", "B"}[i%2])
	}
	for i := 0; i < ne; i++ {
		src := storage.VertexID(rng.Intn(nv))
		if i%4 == 0 {
			src = 0
		}
		addStatsEdge(g, src, storage.VertexID(rng.Intn(nv)), rng)
	}
	return g
}

func addStatsEdge(g *storage.Graph, src, dst storage.VertexID, rng *rand.Rand) storage.EdgeID {
	e, err := g.AddEdge(src, dst, []string{"X", "Y"}[rng.Intn(2)])
	if err != nil {
		panic(err)
	}
	if err := g.SetEdgeProp(e, "w", storage.Int(int64(rng.Intn(50)))); err != nil {
		panic(err)
	}
	return e
}

// requireFresh checks the store's statistics against a full recompute over
// its graph and returns them.
func requireFresh(t *testing.T, what string, s *index.Store) *index.GraphStats {
	t.Helper()
	got, want := s.GraphStats(), index.ComputeGraphStats(s.Graph())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: memoized statistics %+v, recomputed %+v", what, got, want)
	}
	return got
}

func mustOptimize(t *testing.T, s *index.Store, src string) {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Optimize(s, q, opt.ModeDefault); err != nil {
		t.Fatal(err)
	}
}

const statsQuery = "MATCH a1-[e1]->a2-[e2]->a3, a3-[e3]->a1"

// TestGraphStatsMemoParity is the memo's contract: on every way a store
// comes to exist or change, its memoized statistics equal a fresh full
// recompute over its graph, and concurrent first planners agree.
func TestGraphStatsMemoParity(t *testing.T) {
	// Exact values on a hand-checkable graph: 0->1 (X), 0->2 (Y), 1->2 (X).
	tiny := storage.NewGraph()
	for _, l := range []string{"A", "A", "B"} {
		tiny.AddVertex(l)
	}
	for _, e := range []struct {
		src, dst storage.VertexID
		label    string
	}{{0, 1, "X"}, {0, 2, "Y"}, {1, 2, "X"}} {
		if _, err := tiny.AddEdge(e.src, e.dst, e.label); err != nil {
			t.Fatal(err)
		}
	}
	x, _ := tiny.Catalog().LookupEdgeLabel("X")
	a, _ := tiny.Catalog().LookupVertexLabel("A")
	ts := index.ComputeGraphStats(tiny)
	// Degrees (out, in): v0 (2,0), v1 (1,1), v2 (0,2): 4 + 2 + 4.
	if ts.NumVertices != 3 || ts.LiveEdges != 3 || ts.EdgeLabelCounts[x] != 2 ||
		ts.VertexLabelCounts[a] != 2 || ts.DegreeSquares != 10 {
		t.Fatalf("tiny graph statistics %+v", ts)
	}

	rng := rand.New(rand.NewSource(11))
	g := statsGraph(60, 300, rng)
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := requireFresh(t, "NewStore", s)

	// DDL copies share the graph and carry the memo over.
	vp, err := index.BuildVertexPartitioned(s.Primary(), index.VPDef{
		View: index.View1Hop{Name: "vp"},
		Dirs: []index.Direction{index.FW},
		Cfg:  index.Config{Partitions: []index.PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := index.BuildEdgePartitioned(s.Primary(), index.EPDef{
		View: index.View2Hop{Name: "ep", Dir: index.DestinationFW, Pred: pred.Predicate{}.
			And(pred.VarTerm(pred.VarBound, "w", pred.LT, pred.VarAdj, "w"))},
		Cfg: index.Config{Partitions: []index.PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	withVP := s.WithVertexPartitioned(vp)
	withEP := withVP.WithEdgePartitioned(ep)
	without, ok := withEP.WithoutIndex("vp")
	if !ok {
		t.Fatal("WithoutIndex found no vp")
	}
	for _, c := range []struct {
		what string
		s    *index.Store
	}{{"WithVertexPartitioned", withVP}, {"WithEdgePartitioned", withEP}, {"WithoutIndex", without}} {
		if requireFresh(t, c.what, c.s) != base {
			t.Fatalf("%s did not carry the memo over", c.what)
		}
	}

	// Fold successors over a delta that adds vertices, inserts edges and
	// deletes base and fresh edges start from their own graphs.
	mustOptimize(t, withEP, statsQuery)
	g2 := g.Clone()
	b := index.NewDeltaBuilder(index.NewDelta(), withEP.Primary(), g2)
	for i := 0; i < 40; i++ {
		switch {
		case i%5 == 0:
			g2.AddVertex("B")
		case i%7 == 0:
			b.Delete(storage.EdgeID(rng.Intn(g2.NumEdges())))
		default:
			nv := g2.NumVertices()
			b.Insert(addStatsEdge(g2, storage.VertexID(rng.Intn(nv)), storage.VertexID(nv-1), rng))
		}
	}
	if b.Impossible() {
		t.Fatal("delta unexpectedly unbufferable")
	}
	d := b.Freeze()
	gInc := g2.Clone()
	gInc.ApplyTombstones(d.DeletedEdges())
	inc, ok := withEP.CloneIncremental(gInc, d)
	if !ok {
		t.Fatal("CloneIncremental declined a bufferable delta")
	}
	gFull := g2.Clone()
	gFull.ApplyTombstones(d.DeletedEdges())
	full, err := withEP.CloneRebuilt(gFull, withEP.Primary().Config())
	if err != nil {
		t.Fatal(err)
	}
	incStats := requireFresh(t, "CloneIncremental", inc)
	if reflect.DeepEqual(incStats, base) {
		t.Fatal("delta left the statistics unchanged; the fold cases test nothing")
	}
	if fullStats := requireFresh(t, "CloneRebuilt", full); !reflect.DeepEqual(fullStats, incStats) {
		t.Fatalf("incremental %+v vs rebuilt %+v", incStats, fullStats)
	}
	if s.GraphStats() != base {
		t.Fatal("folding replaced the parent store's memo")
	}

	// A store reopened from a checkpoint image.
	w := enc.NewWriter()
	storage.EncodeGraph(w, inc.Graph())
	index.EncodeStore(w, inc)
	r := enc.NewReader(w.Bytes())
	rg, err := storage.DecodeGraph(r)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := index.DecodeStore(r, rg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.DiffStores(inc, reopened); err != nil {
		t.Fatal(err)
	}
	if got := requireFresh(t, "checkpoint reopen", reopened); !reflect.DeepEqual(got, incStats) {
		t.Fatalf("reopened %+v vs checkpointed %+v", got, incStats)
	}

	// The legacy mutable store: writes after a plan must invalidate.
	ms, err := index.NewStore(statsGraph(30, 120, rng), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustOptimize(t, ms, statsQuery)
	e, err := ms.InsertEdge(3, 4, "Y", map[string]storage.Value{"w": storage.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	requireFresh(t, "InsertEdge", ms)
	mustOptimize(t, ms, statsQuery)
	if err := ms.DeleteEdge(e); err != nil {
		t.Fatal(err)
	}
	requireFresh(t, "DeleteEdge", ms)

	// Concurrent first planners on a fresh store publish equal statistics
	// and compile the plan a serial planner compiles.
	q, err := query.Parse(statsQuery)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Optimize(ref, q, opt.ModeDefault)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const planners = 8
	plans := make([]string, planners)
	costs := make([]float64, planners)
	errs := make([]error, planners)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < planners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := opt.Optimize(fresh, q, opt.ModeDefault)
			if err != nil {
				errs[i] = err
				return
			}
			plans[i], costs[i] = p.Explain(), p.EstimatedICost
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < planners; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if plans[i] != want.Explain() || costs[i] != want.EstimatedICost {
			t.Fatalf("planner %d compiled\n%s(est %v), serial planner\n%s(est %v)",
				i, plans[i], costs[i], want.Explain(), want.EstimatedICost)
		}
	}
	requireFresh(t, "concurrent first plans", fresh)
}
