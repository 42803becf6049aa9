package pred

import (
	"testing"
	"testing/quick"

	"github.com/aplusdb/aplus/internal/storage"
)

func TestShiftEval(t *testing.T) {
	g := storage.ExampleGraph()
	// t13: amt 10, date 13. t19: amt 5, date 19.
	// eb.amt < eadj.amt + 100  with eb=t13 (10), eadj=t19 (5): 10 < 105.
	p := Predicate{}.And(VarTermShift(VarBound, storage.PropAmount, LT, VarAdj, storage.PropAmount, 100))
	ctx := EdgeCtx{Adj: storage.Transfer(19), Bound: storage.Transfer(13), HasBound: true}
	if !evalChecked(t, p, g, ctx) {
		t.Error("banded predicate should hold")
	}
	// With shift 4: 10 < 9 fails.
	p2 := Predicate{}.And(VarTermShift(VarBound, storage.PropAmount, LT, VarAdj, storage.PropAmount, 4))
	if evalChecked(t, p2, g, ctx) {
		t.Error("tight band should fail")
	}
}

func TestShiftNormalizeRoundTrip(t *testing.T) {
	// L < R+s  <=>  R > L-s: normalized forms of both must be equal.
	a := VarTermShift(VarBound, "amt", LT, VarAdj, "amt", 100)  // eb.amt < eadj.amt+100
	b := VarTermShift(VarAdj, "amt", GT, VarBound, "amt", -100) // eadj.amt > eb.amt-100
	if !termEqual(a.Normalize(), b.Normalize()) {
		t.Errorf("normalized forms differ: %v vs %v", a.Normalize(), b.Normalize())
	}
}

func TestShiftImplication(t *testing.T) {
	band := func(op Op, s int64) Term { return VarTermShift(VarBound, "amt", op, VarAdj, "amt", s) }
	cases := []struct {
		t, u Term
		want bool
	}{
		// Tighter bands imply looser ones.
		{band(LT, 50), band(LT, 100), true},
		{band(LT, 100), band(LT, 50), false},
		{band(LT, 100), band(LT, 100), true},
		{band(LE, 50), band(LT, 100), true},
		{band(LE, 100), band(LT, 100), false},
		{band(LT, 100), band(LE, 100), true},
		{band(GT, 100), band(GT, 50), true},
		{band(GT, 50), band(GT, 100), false},
		{band(GE, 100), band(GT, 50), true},
		{band(EQ, 50), band(LT, 100), true},
		{band(EQ, 50), band(GT, 100), false},
		{band(EQ, 50), band(LE, 50), true},
		{band(EQ, 50), band(GE, 50), true},
	}
	for _, c := range cases {
		if got := TermImplies(c.t, c.u); got != c.want {
			t.Errorf("TermImplies(%v, %v) = %v, want %v", c.t, c.u, got, c.want)
		}
	}
}

// TestShiftImpliesSemanticQuick checks soundness of banded implications by
// evaluating both terms over sampled value pairs.
func TestShiftImpliesSemanticQuick(t *testing.T) {
	ops := []Op{EQ, LT, LE, GT, GE}
	f := func(aOp, bOp uint8, aS, bS int8, x, y int16) bool {
		ta := VarTermShift(VarBound, "v", ops[int(aOp)%len(ops)], VarAdj, "v", int64(aS))
		tb := VarTermShift(VarBound, "v", ops[int(bOp)%len(ops)], VarAdj, "v", int64(bS))
		if !TermImplies(ta, tb) {
			return true
		}
		l, r := storage.Int(int64(x)), storage.Int(int64(y))
		satA := Compare(l, ta.Op, ApplyShift(r, ta.Shift))
		satB := Compare(l, tb.Op, ApplyShift(r, tb.Shift))
		return !satA || satB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestApplyShift(t *testing.T) {
	if v := ApplyShift(storage.Int(5), 3); !v.Equal(storage.Int(8)) {
		t.Error("int shift")
	}
	if v := ApplyShift(storage.Float(1.5), 2); !v.Equal(storage.Float(3.5)) {
		t.Error("float shift")
	}
	if v := ApplyShift(storage.Str("x"), 2); !v.Equal(storage.Str("x")) {
		t.Error("string shift should pass through")
	}
	if v := ApplyShift(storage.NullValue, 2); !v.IsNull() {
		t.Error("null shift should stay null")
	}
}

func TestShiftString(t *testing.T) {
	term := VarTermShift(VarBound, "amt", LT, VarAdj, "amt", 100)
	if s := term.String(); s != "eb.amt < eadj.amt+100" {
		t.Errorf("String = %q", s)
	}
}
