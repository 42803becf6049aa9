package query

import (
	"strings"
	"testing"
	"time"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

func TestParseExample1(t *testing.T) {
	// Example 1 of the paper, paren-free syntax.
	q, err := Parse("MATCH c1-[r1]->a1-[r2]->a2 WHERE c1.name = 'Alice'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vertices) != 3 || len(q.Edges) != 2 || len(q.Preds) != 1 {
		t.Fatalf("shape = %d vertices, %d edges, %d preds", len(q.Vertices), len(q.Edges), len(q.Preds))
	}
	if q.Edges[0].Src != "c1" || q.Edges[0].Dst != "a1" {
		t.Error("edge 1 endpoints wrong")
	}
	p := q.Preds[0]
	if p.LeftVar != "c1" || p.LeftProp != "name" || p.Op != pred.EQ || !p.Const.Equal(storage.Str("Alice")) {
		t.Errorf("pred = %v", p)
	}
}

func TestParseEdgeLabelsAndParens(t *testing.T) {
	// Example 2 with label shorthand and parens mixed.
	q, err := Parse("MATCH (c1)-[r1:O]->a1-[r2:W]->(a2) WHERE c1.name = 'Alice'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Edges[0].Label != "O" || q.Edges[1].Label != "W" {
		t.Errorf("labels = %q, %q", q.Edges[0].Label, q.Edges[1].Label)
	}
}

func TestParseVertexLabels(t *testing.T) {
	q, err := Parse("MATCH (c:Customer)-[:O]->(a:Account)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Vertices[0].Label != "Customer" || q.Vertices[1].Label != "Account" {
		t.Error("vertex labels lost")
	}
	// Anonymous edge got a generated name.
	if q.Edges[0].Name == "" {
		t.Error("anonymous edge unnamed")
	}
}

func TestParseCyclicQuery(t *testing.T) {
	// Example 3: triangle.
	q, err := Parse("MATCH a1-[r1:W]->a2-[r2:W]->a3, a3-[r3:W]->a1 WHERE a1.ID = 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vertices) != 3 || len(q.Edges) != 3 {
		t.Fatalf("triangle shape wrong: %d vertices %d edges", len(q.Vertices), len(q.Edges))
	}
	if q.Preds[0].LeftProp != "ID" || !q.Preds[0].Const.Equal(storage.Int(0)) {
		t.Error("ID predicate wrong")
	}
}

func TestParseReverseArrow(t *testing.T) {
	q, err := Parse("MATCH a1<-[r1:W]-a2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Edges[0].Src != "a2" || q.Edges[0].Dst != "a1" {
		t.Errorf("reverse edge endpoints = %s->%s", q.Edges[0].Src, q.Edges[0].Dst)
	}
}

func TestParseVarVarPredicates(t *testing.T) {
	q, err := Parse("MATCH a1-[e1]->a2-[e2]->a3 WHERE e1.date < e2.date AND e1.amt > e2.amt, a1.city = a3.city")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("preds = %d, want 3", len(q.Preds))
	}
	if q.Preds[0].IsConst() || q.Preds[0].RightVar != "e2" {
		t.Error("var-var predicate mangled")
	}
}

func TestParseBareStringConstant(t *testing.T) {
	// The paper writes r2.currency=USD without quotes.
	q, err := Parse("MATCH a1-[r2:W]->a2 WHERE r2.currency = USD")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Preds[0].Const.Equal(storage.Str("USD")) {
		t.Errorf("const = %v", q.Preds[0].Const)
	}
}

func TestParseReturnClauses(t *testing.T) {
	for _, src := range []string{
		"MATCH a-[e]->b RETURN COUNT(*)",
		"MATCH a-[e]->b RETURN *",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseUnicodeArrows(t *testing.T) {
	// The paper's typography uses −, → and ←.
	q, err := Parse("MATCH vs−[e1]→vd, vd←[e2]−vx")
	if err != nil {
		t.Fatal(err)
	}
	if q.Edges[1].Src != "vx" || q.Edges[1].Dst != "vd" {
		t.Error("unicode reverse arrow mis-parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"MATCH",
		"MATCH a-[e]->",
		"MATCH a-[e]->b WHERE",
		"MATCH a-[e]->b WHERE 5 = a.x",
		"MATCH a-[e]->b RETURN SUM(x)",
		"MATCH a-[e]->b, c-[f]->d", // disconnected
		"MATCH a-[e]->b trailing",
		"MATCH (a:X)-[e]->(a:Y)", // conflicting labels
		"MATCH a-[e]->b WHERE a.x ! 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseNonASCIIDigit: a Unicode digit outside ASCII used to stall the
// number lexer (zero-width token, no progress) and grow its token slice
// until the process ran out of memory. It must be rejected promptly.
func TestParseNonASCIIDigit(t *testing.T) {
	for _, src := range []string{
		"MATCH a1-[e1]->a2 WHERE a1.x > ۶",
		"۶\x9a\a",
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Parse(src)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "unexpected character") {
				t.Errorf("Parse(%q) = %v, want an unexpected-character error", src, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Parse(%q) did not return", src)
		}
	}
}

func TestParseFloatsAndComparators(t *testing.T) {
	q, err := Parse("MATCH a-[e]->b WHERE e.amt >= 1.5, e.amt <= 9, e.x <> 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Op != pred.GE || q.Preds[1].Op != pred.LE || q.Preds[2].Op != pred.NE {
		t.Error("comparators wrong")
	}
	if q.Preds[0].Const.Kind != storage.KindFloat {
		t.Error("float constant lost")
	}
}

func TestGraphString(t *testing.T) {
	q, err := Parse("MATCH a-[e:W]->b WHERE a.city = 'SF'")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	if s == "" {
		t.Error("empty render")
	}
	// Round-trip: rendered form parses back to the same shape.
	q2, err := Parse(s)
	if err != nil {
		t.Fatalf("re-parse %q: %v", s, err)
	}
	if len(q2.Edges) != len(q.Edges) || len(q2.Preds) != len(q.Preds) {
		t.Error("round trip changed shape")
	}
}

func TestEdgesIncident(t *testing.T) {
	q, err := Parse("MATCH a-[e1]->b, b-[e2]->c, a-[e3]->c")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.EdgesIncident("b"); len(got) != 2 {
		t.Errorf("b incident to %d edges, want 2", len(got))
	}
}
