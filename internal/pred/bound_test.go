package pred

import (
	"math"
	"math/rand"
	"testing"

	"github.com/aplusdb/aplus/internal/storage"
)

// evalChecked evaluates p bound to g and fails t if the by-name oracle
// disagrees.
func evalChecked(t *testing.T, p Predicate, g *storage.Graph, ctx EdgeCtx) bool {
	t.Helper()
	bp := p.Bind(g)
	got := bp.Eval(ctx)
	if want := evalByName(p, g, ctx); got != want {
		t.Fatalf("bound %v = %v, by-name oracle = %v (ctx %+v)", p, got, want, ctx)
	}
	return got
}

// Property columns of the random graphs: one per kind on each table, plus
// names no column has.
var (
	edgeProps   = []string{"i", "f", "b", "s"}
	vertexProps = []string{"vi", "vf", "vb", "vs"}
	strPool     = []string{"", "a", "b", "SF", "BOS", "€"}
)

// randInt draws ints that stress the float64 comparison: small values
// (zero included, the payload of NULL slots), neighbours of 2^53 where
// float64 rounding merges distinct ints, and the extremes where a shift
// wraps.
func randInt(r *rand.Rand) int64 {
	switch r.Intn(5) {
	case 0:
		return int64(r.Intn(7)) - 3
	case 1:
		return 1<<53 + int64(r.Intn(5)) - 2
	case 2:
		return -(1 << 53) - int64(r.Intn(5)) + 2
	case 3:
		return []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}[r.Intn(3)]
	}
	return int64(r.Intn(40))
}

func randValue(r *rand.Rand, kind storage.Kind) storage.Value {
	switch kind {
	case storage.KindInt:
		return storage.Int(randInt(r))
	case storage.KindFloat:
		if r.Intn(4) == 0 {
			return storage.Float(float64(randInt(r)))
		}
		return storage.Float(float64(r.Intn(9)-4) / 2)
	case storage.KindBool:
		return storage.Bool(r.Intn(2) == 0)
	}
	return storage.Str(strPool[r.Intn(len(strPool)-1)]) // "€" is never interned
}

var propKinds = []storage.Kind{storage.KindInt, storage.KindFloat, storage.KindBool, storage.KindString}

// setVertexProps and setEdgeProps give entities [from, n) random values
// (about a third NULL) in every column.
func setVertexProps(t testing.TB, r *rand.Rand, g *storage.Graph, from int) {
	for v := from; v < g.NumVertices(); v++ {
		for k, name := range vertexProps {
			if r.Intn(3) == 0 && v > 0 {
				continue
			}
			if err := g.SetVertexProp(storage.VertexID(v), name, randValue(r, propKinds[k])); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func setEdgeProps(t testing.TB, r *rand.Rand, g *storage.Graph, from int) {
	for e := from; e < g.NumEdges(); e++ {
		for k, name := range edgeProps {
			if r.Intn(3) == 0 && e > 0 {
				continue
			}
			if err := g.SetEdgeProp(storage.EdgeID(e), name, randValue(r, propKinds[k])); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// growGraph appends nv vertices and ne edges with random labels and props.
func growGraph(t testing.TB, r *rand.Rand, g *storage.Graph, nv, ne int) {
	v0, e0 := g.NumVertices(), g.NumEdges()
	for i := 0; i < nv; i++ {
		g.AddVertex([]string{"", "A", "B"}[r.Intn(3)])
	}
	for i := 0; i < ne; i++ {
		src := storage.VertexID(r.Intn(g.NumVertices()))
		dst := storage.VertexID(r.Intn(g.NumVertices()))
		if _, err := g.AddEdge(src, dst, []string{"", "X", "Y"}[r.Intn(3)]); err != nil {
			t.Fatal(err)
		}
	}
	setVertexProps(t, r, g, v0)
	setEdgeProps(t, r, g, e0)
}

// randomGraph returns a graph and a copy-on-write clone of it that gained
// entities, so the clone reads cloned columns (shared payload, private NULL
// bitsets, dictionaries shared until a new string is interned).
func randomGraph(t testing.TB, seed int64) (base, clone *storage.Graph) {
	r := rand.New(rand.NewSource(seed))
	base = storage.NewGraph()
	growGraph(t, r, base, 8, 24)
	clone = base.Clone()
	growGraph(t, r, clone, 3, 10)
	if r.Intn(2) == 0 {
		// Intern a string the base never saw: detaches the clone's dictionary.
		if err := clone.SetEdgeProp(storage.EdgeID(clone.NumEdges()-1), "s", storage.Str("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	return base, clone
}

func randRef(r *rand.Rand) Ref {
	v := []Var{VarAdj, VarBound, VarSrc, VarDst}[r.Intn(4)]
	props := vertexProps
	if v == VarAdj || v == VarBound {
		props = edgeProps
	}
	switch n := r.Intn(10); {
	case n == 0:
		return Ref{v, PropID}
	case n == 1:
		return Ref{v, PropLabel}
	case n == 2:
		return Ref{v, "missing"}
	case n == 3:
		// A property of the other table: a missing column here.
		if v == VarAdj || v == VarBound {
			return Ref{v, vertexProps[r.Intn(len(vertexProps))]}
		}
		return Ref{v, edgeProps[r.Intn(len(edgeProps))]}
	}
	return Ref{v, props[r.Intn(len(props))]}
}

func randConst(r *rand.Rand) storage.Value {
	switch r.Intn(7) {
	case 0:
		return storage.NullValue
	case 1:
		// Label names, known and unknown.
		return storage.Str([]string{"", "A", "X", "Y", "Z", "nolabel"}[r.Intn(6)])
	case 2:
		return storage.Str(strPool[r.Intn(len(strPool))])
	}
	return randValue(r, propKinds[r.Intn(len(propKinds))])
}

func randShift(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(r.Intn(7)) - 3
	case 2:
		return randInt(r)
	}
	return -int64(r.Intn(100))
}

func randTerm(r *rand.Rand) Term {
	op := Op(r.Intn(6))
	if r.Intn(3) == 0 {
		l := randRef(r)
		return ConstTerm(l.Var, l.Prop, op, randConst(r))
	}
	l, rr := randRef(r), randRef(r)
	return VarTermShift(l.Var, l.Prop, op, rr.Var, rr.Prop, randShift(r))
}

func randCtx(r *rand.Rand, g *storage.Graph) EdgeCtx {
	return EdgeCtx{
		Adj:      storage.EdgeID(r.Intn(g.NumEdges())),
		Bound:    storage.EdgeID(r.Intn(g.NumEdges())),
		HasBound: r.Intn(4) != 0,
	}
}

// TestBoundTermMatchesOracle is the differential test of the bound kernel:
// random terms over random graphs (and their cloned successors) of every
// column kind, NULLs, ints around 2^53 and at the wrap points, shifts of
// every sign, all six operators, strings and labels absent from the
// dictionary or catalog, missing properties, and eb with and without
// HasBound. Bound evaluation must equal the by-name evaluator everywhere.
func TestBoundTermMatchesOracle(t *testing.T) {
	paths := map[path]int{}
	for seed := int64(1); seed <= 40; seed++ {
		base, clone := randomGraph(t, seed)
		r := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 150; i++ {
			var p Predicate
			for n := 1 + r.Intn(3); n > 0; n-- {
				p.Terms = append(p.Terms, randTerm(r))
			}
			for _, g := range []*storage.Graph{base, clone} {
				bp := p.Bind(g)
				for _, bt := range bp.terms {
					paths[bt.path]++
				}
				for k := 0; k < 12; k++ {
					ctx := randCtx(r, g)
					if got, want := bp.Eval(ctx), evalByName(p, g, ctx); got != want {
						t.Fatalf("seed %d: %v on %+v: bound %v, oracle %v", seed, p, ctx, got, want)
					}
				}
			}
		}
	}
	// Every typed path must have been exercised.
	for _, pa := range []path{pathGeneric, pathNever, pathInt, pathCode, pathCodes, pathEdgeLabel, pathVertexLabel} {
		if paths[pa] == 0 {
			t.Errorf("path %d never exercised", pa)
		}
	}
}

// TestBoundTermIntExtremes pins the float64 semantics of the int path:
// ints above 2^53 that round to the same float compare equal, exactly as
// Value.Compare has them, and a shift that overflows wraps first.
func TestBoundTermIntExtremes(t *testing.T) {
	g := storage.NewGraph()
	g.AddVertex("")
	e, _ := g.AddEdge(0, 0, "")
	e2, _ := g.AddEdge(0, 0, "")
	for _, c := range []struct {
		l, r  int64
		shift int64
		op    Op
	}{
		{1<<53 + 1, 1 << 53, 0, EQ},
		{1 << 53, 1<<53 + 1, 0, LT},
		{math.MaxInt64, math.MaxInt64 - 5, 5, EQ},
		{math.MinInt64, math.MaxInt64, 1, GE},
		{5, 7, -2, LE},
	} {
		_ = g.SetEdgeProp(e, "i", storage.Int(c.l))
		_ = g.SetEdgeProp(e2, "i", storage.Int(c.r))
		p := Predicate{Terms: []Term{VarTermShift(VarAdj, "i", c.op, VarBound, "i", c.shift)}}
		evalChecked(t, p, g, EdgeCtx{Adj: e, Bound: e2, HasBound: true})
		q := Predicate{Terms: []Term{ConstTerm(VarAdj, "i", c.op, ApplyShift(storage.Int(c.r), c.shift))}}
		evalChecked(t, q, g, EdgeCtx{Adj: e})
	}
}

// FuzzBoundTerm drives single bound terms from fuzzed operands, constants
// and shifts over a seeded random graph, checking every (adj, bound) pair
// against the by-name evaluator.
func FuzzBoundTerm(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(2), int64(0), int64(0), "a", false)
	f.Add(int64(2), uint8(5), uint8(9), uint8(0), int64(1<<53), int64(-1), "SF", true)
	f.Add(int64(3), uint8(3), uint8(200), uint8(1), int64(math.MaxInt64), int64(3), "X", true)
	f.Fuzz(func(t *testing.T, seed int64, lsel, rsel, op uint8, c, shift int64, s string, useConst bool) {
		base, clone := randomGraph(t, seed%64)
		refs := []Ref{}
		for _, v := range []Var{VarAdj, VarBound, VarSrc, VarDst} {
			for _, p := range append(append([]string{PropID, PropLabel, "missing"}, edgeProps...), vertexProps...) {
				refs = append(refs, Ref{v, p})
			}
		}
		l := refs[int(lsel)%len(refs)]
		var term Term
		if useConst {
			consts := []storage.Value{storage.Int(c), storage.Float(float64(c)), storage.Str(s), storage.Bool(c&1 == 0), storage.NullValue}
			term = ConstTerm(l.Var, l.Prop, Op(op%6), consts[int(rsel)%len(consts)])
		} else {
			rr := refs[int(rsel)%len(refs)]
			term = VarTermShift(l.Var, l.Prop, Op(op%6), rr.Var, rr.Prop, shift)
		}
		p := Predicate{Terms: []Term{term}}
		for _, g := range []*storage.Graph{base, clone} {
			bp := p.Bind(g)
			for adj := 0; adj < g.NumEdges(); adj++ {
				for bound := 0; bound < g.NumEdges(); bound += 3 {
					ctx := EdgeCtx{Adj: storage.EdgeID(adj), Bound: storage.EdgeID(bound), HasBound: bound%2 == 0}
					if got, want := bp.Eval(ctx), evalByName(p, g, ctx); got != want {
						t.Fatalf("%v on %+v: bound %v, oracle %v", term, ctx, got, want)
					}
				}
			}
		}
	})
}

// benchHits keeps BenchmarkBoundTerm's evaluations observable.
var benchHits int

// BenchmarkBoundTerm measures one term evaluation per op on each typed
// path and on a missing property, bound once outside the loop.
func BenchmarkBoundTerm(b *testing.B) {
	base, _ := randomGraph(b, 1)
	g := base
	cases := []struct {
		name string
		term Term
	}{
		{"int-band-shift", VarTermShift(VarBound, "i", LT, VarAdj, "i", 100)},
		{"string-eq", ConstTerm(VarSrc, "vs", EQ, storage.Str("SF"))},
		{"label-eq", ConstTerm(VarAdj, PropLabel, EQ, storage.Str("X"))},
		{"missing-prop", ConstTerm(VarAdj, "missing", EQ, storage.Int(1))},
	}
	n := g.NumEdges()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			bp := Predicate{Terms: []Term{c.term}}.Bind(g)
			hits := 0
			for i := 0; i < b.N; i++ {
				if bp.Eval(EdgeCtx{Adj: storage.EdgeID(i % n), Bound: storage.EdgeID((i * 7) % n), HasBound: true}) {
					hits++
				}
			}
			benchHits = hits
		})
	}
}
