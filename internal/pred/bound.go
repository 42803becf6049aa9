package pred

import "github.com/aplusdb/aplus/internal/storage"

// Bound evaluation. A Term names its operands by property name; reading
// them that way per tuple costs a map lookup, a boxed storage.Value, and
// the generic Value.Compare for every operand of every evaluation. Binding
// resolves each operand once against one graph — to its *storage.Column,
// to the entity's ID or label, or to a constant (a missing property binds
// to constant NULL) — and picks a typed comparison:
//
//   - int vs int (KindInt columns, IDs, int constants, shifts included)
//     compares float64(l) with float64(r), exactly Value.Compare's numeric
//     path;
//   - a string column =/<> a string constant compares dictionary codes,
//     the constant's code looked up once (an absent constant never
//     matches), and two string columns sharing one dictionary (the same
//     property of two entities) =/<> compare their codes;
//   - a label =/<> a string constant compares label IDs from the catalog;
//   - everything else reads the operands' Values (still without the map
//     lookup) and applies Compare.
//
// Results are identical to reading every operand by name and applying
// Compare, NULL-strict semantics included. A binding is only valid for the
// graph it was made over, so callers bind once per execution or index
// build and supply entity indexes per tuple: the index layer from the
// adjacency entry (EdgeCtx), the executor from its binding slots.

type source uint8

const (
	srcConst       source = iota // c; NULL for a missing property
	srcID                        // the entity's ID as an int
	srcEdgeLabel                 // the edge's label name
	srcVertexLabel               // the vertex's label name
	srcColumn                    // col at the entity's index
)

// BoundOperand is one side of a bound comparison: a constant, or a property
// of an edge or vertex table resolved against one graph. The entity is
// supplied per evaluation as an index — a vertex or edge ID widened to
// uint64 — and is ignored for constants.
type BoundOperand struct {
	src   source
	col   *storage.Column
	g     *storage.Graph
	c     storage.Value
	shift int64
}

// BindConst binds a constant operand, applying shift once, here.
func BindConst(c storage.Value, shift int64) BoundOperand {
	return BoundOperand{src: srcConst, c: ApplyShift(c, shift)}
}

// BindProp binds property prop (or the PropID / PropLabel pseudo-property)
// of g's edge table when edge is set, else of its vertex table. shift is
// added to numeric values as ApplyShift does. A property g has no column
// for binds to constant NULL.
func BindProp(g *storage.Graph, edge bool, prop string, shift int64) BoundOperand {
	o := BoundOperand{g: g, shift: shift}
	switch {
	case prop == PropID:
		o.src = srcID
	case prop == PropLabel && edge:
		o.src = srcEdgeLabel
	case prop == PropLabel:
		o.src = srcVertexLabel
	default:
		var ok bool
		if edge {
			o.col, ok = g.EdgeColumn(prop)
		} else {
			o.col, ok = g.VertexColumn(prop)
		}
		if !ok {
			return BoundOperand{src: srcConst}
		}
		o.src = srcColumn
	}
	return o
}

// Value returns the operand's value for entity i: the generic read behind
// the fallback comparison, for callers that need the Value itself.
func (o *BoundOperand) Value(i uint64) storage.Value {
	var v storage.Value
	switch o.src {
	case srcConst:
		return o.c
	case srcID:
		v = storage.Int(int64(i))
	case srcEdgeLabel:
		v = storage.Str(o.g.Catalog().EdgeLabelName(o.g.EdgeLabel(storage.EdgeID(i))))
	case srcVertexLabel:
		v = storage.Str(o.g.Catalog().VertexLabelName(o.g.VertexLabel(storage.VertexID(i))))
	case srcColumn:
		v = o.col.Get(int(i))
	}
	return ApplyShift(v, o.shift)
}

// isNull reports whether the operand is constant NULL.
func (o *BoundOperand) isNull() bool { return o.src == srcConst && o.c.IsNull() }

// isInt reports whether every non-NULL value of the operand is a KindInt
// Value.
func (o *BoundOperand) isInt() bool {
	switch o.src {
	case srcID:
		return true
	case srcColumn:
		return o.col.Kind == storage.KindInt
	case srcConst:
		return o.c.Kind == storage.KindInt
	}
	return false
}

// isString reports whether the operand is a string column.
func (o *BoundOperand) isString() bool {
	return o.src == srcColumn && o.col.Kind == storage.KindString
}

// intAt returns the shifted int value of entity i; ok is false for NULL.
// Only valid when isInt holds.
func (o *BoundOperand) intAt(i uint64) (int64, bool) {
	switch o.src {
	case srcColumn:
		v, ok := o.col.IntAt(int(i))
		return v + o.shift, ok
	case srcID:
		return int64(i) + o.shift, true
	}
	return o.c.I, true
}

type path uint8

const (
	pathGeneric     path = iota
	pathNever            // an operand is constant NULL
	pathInt              // both operands int-valued
	pathCode             // string column L =/<> string constant R
	pathCodes            // string columns L =/<> R sharing one dictionary
	pathEdgeLabel        // edge label L =/<> string constant R
	pathVertexLabel      // vertex label L =/<> string constant R
)

// BoundTerm is a comparison whose operands are bound to one graph. Test
// evaluates it with no map lookup and, on the typed paths, no Value boxing.
type BoundTerm struct {
	l, r BoundOperand
	op   Op

	path path
	// key is R's dictionary code (pathCode) or label ID (label paths);
	// known is false when R is absent from the dictionary or catalog, so it
	// equals no entity's value.
	key   uint32
	known bool
}

// BindTerm combines two bound operands under op and selects the typed path.
func BindTerm(l BoundOperand, op Op, r BoundOperand) BoundTerm {
	t := BoundTerm{l: l, op: op, r: r}
	switch {
	case l.isNull() || r.isNull():
		t.path = pathNever
	case l.isInt() && r.isInt():
		t.path = pathInt
	case (op == EQ || op == NE) && l.isString() && r.isString() && l.col.Dict() == r.col.Dict():
		t.path = pathCodes
	case (op == EQ || op == NE) && r.src == srcConst && r.c.Kind == storage.KindString:
		switch l.src {
		case srcColumn:
			if l.isString() {
				t.path = pathCode
				t.key, t.known = l.col.Dict().Lookup(r.c.S)
			}
		case srcEdgeLabel:
			id, ok := l.g.Catalog().LookupEdgeLabel(r.c.S)
			t.path, t.key, t.known = pathEdgeLabel, uint32(id), ok
		case srcVertexLabel:
			id, ok := l.g.Catalog().LookupVertexLabel(r.c.S)
			t.path, t.key, t.known = pathVertexLabel, uint32(id), ok
		}
	}
	return t
}

// Test evaluates the term with l and r the entity indexes of the left and
// right operands (ignored for constants).
func (t *BoundTerm) Test(l, r uint64) bool {
	switch t.path {
	case pathInt:
		a, ok := t.l.intAt(l)
		if !ok {
			return false
		}
		b, ok := t.r.intAt(r)
		if !ok {
			return false
		}
		return compareFloat(float64(a), t.op, float64(b))
	case pathCode:
		code, ok := t.l.col.Code(int(l))
		if !ok {
			return false
		}
		return (t.known && code == t.key) == (t.op == EQ)
	case pathCodes:
		a, ok := t.l.col.Code(int(l))
		if !ok {
			return false
		}
		b, ok := t.r.col.Code(int(r))
		if !ok {
			return false
		}
		return (a == b) == (t.op == EQ)
	case pathEdgeLabel:
		id := uint32(t.l.g.EdgeLabel(storage.EdgeID(l)))
		return (t.known && id == t.key) == (t.op == EQ)
	case pathVertexLabel:
		id := uint32(t.l.g.VertexLabel(storage.VertexID(l)))
		return (t.known && id == t.key) == (t.op == EQ)
	case pathNever:
		return false
	}
	return Compare(t.l.Value(l), t.op, t.r.Value(r))
}

// compareFloat applies op to two numbers as Value.Compare orders them.
func compareFloat(a float64, op Op, b float64) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// EdgeCtx names the entities one adjacency entry binds: the adjacent edge
// (whose endpoints give vs and vd) and, for 2-hop views, the bound edge.
// Without HasBound every eb operand is NULL.
type EdgeCtx struct {
	Adj      storage.EdgeID
	Bound    storage.EdgeID
	HasBound bool
}

// BoundPredicate is a Predicate bound to one graph for evaluation against
// adjacency entries. Bind it once per index build or maintenance batch,
// over the graph that build reads.
type BoundPredicate struct {
	g     *storage.Graph
	terms []varTerm
}

// varTerm is a bound term plus the variables whose entities it reads.
type varTerm struct {
	BoundTerm
	lv, rv Var
}

// Bind resolves every term of p against g. p must have its vnbr references
// resolved (ResolveNbr) first.
func (p Predicate) Bind(g *storage.Graph) BoundPredicate {
	bp := BoundPredicate{g: g, terms: make([]varTerm, len(p.Terms))}
	for i, t := range p.Terms {
		r := BindConst(t.Const, 0)
		if !t.IsConst() {
			r = bindRef(g, t.Right, t.Shift)
		}
		bp.terms[i] = varTerm{BindTerm(bindRef(g, t.Left, 0), t.Op, r), t.Left.Var, t.Right.Var}
	}
	return bp
}

func bindRef(g *storage.Graph, r Ref, shift int64) BoundOperand {
	switch r.Var {
	case VarAdj, VarBound:
		return BindProp(g, true, r.Prop, shift)
	case VarSrc, VarDst:
		return BindProp(g, false, r.Prop, shift)
	case VarNbr:
		// The neighbour of an adjacency entry depends on direction; the
		// index layer resolves VarNbr to VarSrc or VarDst before binding.
		// Seeing it here is a bug.
		panic("pred: unresolved vnbr reference; resolve direction first")
	}
	return BindConst(storage.NullValue, 0)
}

// IsTrue reports whether the predicate has no terms.
func (p *BoundPredicate) IsTrue() bool { return len(p.terms) == 0 }

// Eval evaluates the conjunction for one adjacency entry. Any NULL operand
// — a missing property, or eb without HasBound — makes its term false.
func (p *BoundPredicate) Eval(ctx EdgeCtx) bool {
	for i := range p.terms {
		t := &p.terms[i]
		l, ok := p.entity(t.lv, ctx)
		if !ok {
			return false
		}
		r, ok := p.entity(t.rv, ctx)
		if !ok {
			return false
		}
		if !t.Test(l, r) {
			return false
		}
	}
	return true
}

// entity returns the index of v's entity under ctx; ok is false when v is
// an absent bound edge. Constants (VarNone) read no entity.
func (p *BoundPredicate) entity(v Var, ctx EdgeCtx) (uint64, bool) {
	switch v {
	case VarAdj:
		return uint64(ctx.Adj), true
	case VarBound:
		return uint64(ctx.Bound), ctx.HasBound
	case VarSrc:
		return uint64(p.g.Src(ctx.Adj)), true
	case VarDst:
		return uint64(p.g.Dst(ctx.Adj)), true
	}
	return 0, true
}
