package pred

import "github.com/aplusdb/aplus/internal/storage"

// The value-at-a-time evaluator: every operand is looked up by name and
// boxed into a storage.Value, then compared with Compare. It is the
// reference BoundPredicate and BoundTerm must agree with on every input.

// evalByName evaluates p for one adjacency entry of g.
func evalByName(p Predicate, g *storage.Graph, ctx EdgeCtx) bool {
	for _, t := range p.Terms {
		if !evalTermByName(t, g, ctx) {
			return false
		}
	}
	return true
}

func evalTermByName(t Term, g *storage.Graph, ctx EdgeCtx) bool {
	l := valueByName(g, ctx, t.Left)
	var r storage.Value
	if t.IsConst() {
		r = t.Const
	} else {
		r = ApplyShift(valueByName(g, ctx, t.Right), t.Shift)
	}
	return Compare(l, t.Op, r)
}

func valueByName(g *storage.Graph, ctx EdgeCtx, r Ref) storage.Value {
	switch r.Var {
	case VarAdj:
		return edgeValueByName(g, ctx.Adj, r.Prop)
	case VarBound:
		if !ctx.HasBound {
			return storage.NullValue
		}
		return edgeValueByName(g, ctx.Bound, r.Prop)
	case VarSrc:
		return vertexValueByName(g, g.Src(ctx.Adj), r.Prop)
	case VarDst:
		return vertexValueByName(g, g.Dst(ctx.Adj), r.Prop)
	case VarNbr:
		panic("pred: unresolved vnbr reference; resolve direction first")
	}
	return storage.NullValue
}

func edgeValueByName(g *storage.Graph, e storage.EdgeID, prop string) storage.Value {
	switch prop {
	case PropLabel:
		return storage.Str(g.Catalog().EdgeLabelName(g.EdgeLabel(e)))
	case PropID:
		return storage.Int(int64(e))
	default:
		return g.EdgeProp(e, prop)
	}
}

func vertexValueByName(g *storage.Graph, v storage.VertexID, prop string) storage.Value {
	switch prop {
	case PropLabel:
		return storage.Str(g.Catalog().VertexLabelName(g.VertexLabel(v)))
	case PropID:
		return storage.Int(int64(v))
	default:
		return g.VertexProp(v, prop)
	}
}
