package exec

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Operand names one side of a compiled comparison: a property of a bound
// query vertex or edge, or a constant. Shift adds a constant to numeric
// variable operands (banded predicates). An Operand names its property and
// never a column, so plans stay graph-independent: one cached plan runs
// over snapshot graphs whose columns differ. Each execution binds it to
// the Runtime's graph (bind) and reads the entity from the binding slot
// (entity).
type Operand struct {
	IsConst bool
	Const   storage.Value
	IsEdge  bool
	Slot    int
	Prop    string
	Shift   int64
}

// ConstOperand builds a constant operand.
func ConstOperand(v storage.Value) Operand { return Operand{IsConst: true, Const: v} }

// VertexOperand builds an operand reading a vertex slot's property.
func VertexOperand(slot int, prop string) Operand { return Operand{Slot: slot, Prop: prop} }

// EdgeOperand builds an operand reading an edge slot's property.
func EdgeOperand(slot int, prop string) Operand { return Operand{IsEdge: true, Slot: slot, Prop: prop} }

// bind resolves the operand against g (see pred.BindProp).
func (o *Operand) bind(g *storage.Graph) pred.BoundOperand {
	if o.IsConst {
		return pred.BindConst(o.Const, o.Shift)
	}
	return pred.BindProp(g, o.IsEdge, o.Prop, o.Shift)
}

// slot returns where the operand reads its entity from.
func (o *Operand) slot() slotRef {
	switch {
	case o.IsConst:
		return slotRef{kind: slotNone}
	case o.IsEdge:
		return slotRef{kind: slotEdge, slot: o.Slot}
	}
	return slotRef{kind: slotVertex, slot: o.Slot}
}

// String implements fmt.Stringer.
func (o Operand) String() string {
	if o.IsConst {
		return o.Const.String()
	}
	kind := "v"
	if o.IsEdge {
		kind = "e"
	}
	return fmt.Sprintf("%s%d.%s", kind, o.Slot, o.Prop)
}

type slotKind uint8

const (
	slotNone slotKind = iota // constants read no entity
	slotVertex
	slotEdge
)

// slotRef is the binding slot an operand reads its entity from.
type slotRef struct {
	kind slotKind
	slot int
}

// entity returns the slot's entity index under b (0 for constants).
func (s slotRef) entity(b *Binding) uint64 {
	switch s.kind {
	case slotVertex:
		return uint64(b.V[s.slot])
	case slotEdge:
		return uint64(b.E[s.slot])
	}
	return 0
}

// CompiledTerm is a comparison of two operands, as the optimizer emits it.
// It is graph-independent; every execution binds it into the operator's
// scratch slot (bindTerms) and evaluates the bound form.
type CompiledTerm struct {
	Left  Operand
	Op    pred.Op
	Right Operand
}

// String implements fmt.Stringer.
func (t CompiledTerm) String() string {
	return fmt.Sprintf("%s %s %s", t.Left, t.Op, t.Right)
}

// boundTerm is a CompiledTerm bound to one execution's graph, plus the
// binding slots its operands read.
type boundTerm struct {
	pred.BoundTerm
	l, r slotRef
}

// bindTerms binds terms against g into dst's reused backing array, so a
// warm re-execution allocates nothing.
func bindTerms(dst []boundTerm, g *storage.Graph, terms []CompiledTerm) []boundTerm {
	dst = dst[:0]
	for i := range terms {
		t := &terms[i]
		dst = append(dst, boundTerm{
			BoundTerm: pred.BindTerm(t.Left.bind(g), t.Op, t.Right.bind(g)),
			l:         t.Left.slot(),
			r:         t.Right.slot(),
		})
	}
	return dst
}

// evalAll evaluates the conjunction under b, counting one predicate
// evaluation per term reached.
func evalAll(rt *Runtime, b *Binding, terms []boundTerm) bool {
	for i := range terms {
		t := &terms[i]
		rt.PredEvals++
		if !t.Test(t.l.entity(b), t.r.entity(b)) {
			return false
		}
	}
	return true
}
