package storage

import (
	"testing"

	"github.com/aplusdb/aplus/internal/enc"
)

func buildCodecGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	a := g.AddVertex("Account")
	b := g.AddVertex("Account")
	c := g.AddVertex("Customer")
	_ = g.AddVertex("") // unlabeled
	if err := g.SetVertexProp(a, "city", Str("SF")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexProp(b, "city", Str("BOS")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexProp(c, "age", Int(41)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexProp(c, "vip", Bool(true)); err != nil {
		t.Fatal(err)
	}
	e0, _ := g.AddEdge(a, b, "W")
	e1, _ := g.AddEdge(b, c, "DD")
	e2, _ := g.AddEdge(c, a, "W")
	if err := g.SetEdgeProp(e0, "amt", Float(12.5)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeProp(e1, "amt", Float(99)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeProp(e1, "currency", Str("EUR")); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteEdge(e2); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphCodecRoundTrip(t *testing.T) {
	g := buildCodecGraph(t)
	w := enc.NewWriter()
	EncodeGraph(w, g)
	g2, err := DecodeGraph(enc.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() || g2.NumLiveEdges() != g.NumLiveEdges() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			g2.NumVertices(), g2.NumEdges(), g2.NumLiveEdges(),
			g.NumVertices(), g.NumEdges(), g.NumLiveEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g2.VertexLabel(VertexID(v)) != g.VertexLabel(VertexID(v)) {
			t.Fatalf("vertex %d label mismatch", v)
		}
		for _, key := range []string{"city", "age", "vip"} {
			a, b := g.VertexProp(VertexID(v), key), g2.VertexProp(VertexID(v), key)
			if a.Kind != b.Kind || a.Compare(b) != 0 && !(a.IsNull() && b.IsNull()) {
				t.Fatalf("vertex %d prop %q: %v vs %v", v, key, a, b)
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := EdgeID(e)
		if g2.Src(id) != g.Src(id) || g2.Dst(id) != g.Dst(id) ||
			g2.EdgeLabel(id) != g.EdgeLabel(id) || g2.EdgeDeleted(id) != g.EdgeDeleted(id) {
			t.Fatalf("edge %d topology mismatch", e)
		}
		for _, key := range []string{"amt", "currency"} {
			a, b := g.EdgeProp(id, key), g2.EdgeProp(id, key)
			if a.Kind != b.Kind || a.Compare(b) != 0 && !(a.IsNull() && b.IsNull()) {
				t.Fatalf("edge %d prop %q: %v vs %v", e, key, a, b)
			}
		}
	}
	// Catalog names survive with identical ids.
	if g2.Catalog().VertexLabelName(g.Catalog().VertexLabel("Customer")) != "Customer" {
		t.Fatal("catalog mismatch")
	}
	if g2.Catalog().EdgeLabelName(g.Catalog().EdgeLabel("DD")) != "DD" {
		t.Fatal("catalog mismatch")
	}
	// Per-label scan lists are rebuilt.
	l, _ := g.Catalog().LookupVertexLabel("Account")
	if len(g2.VerticesWithLabel(l)) != 2 {
		t.Fatalf("label list mismatch: %v", g2.VerticesWithLabel(l))
	}
	// Derived categorical encodings agree (bucket order is content-defined).
	c1 := g.EdgeLabelCategorical()
	c2 := g2.EdgeLabelCategorical()
	if c1.Cardinality != c2.Cardinality {
		t.Fatalf("categorical cardinality %d vs %d", c1.Cardinality, c2.Cardinality)
	}
	for i := range c1.Codes {
		if c1.Codes[i] != c2.Codes[i] {
			t.Fatalf("categorical code mismatch at %d", i)
		}
	}
}

func TestGraphCodecTruncation(t *testing.T) {
	g := buildCodecGraph(t)
	w := enc.NewWriter()
	EncodeGraph(w, g)
	full := w.Bytes()
	for _, cut := range []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 1} {
		if _, err := DecodeGraph(enc.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestGraphCodecEmpty(t *testing.T) {
	w := enc.NewWriter()
	EncodeGraph(w, NewGraph())
	g2, err := DecodeGraph(enc.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 0 || g2.NumEdges() != 0 {
		t.Fatal("empty graph roundtrip")
	}
}

// TestColumnCodecRejectsStringCodeOutsideDict: a CRC-valid image whose
// string code points past its column's dictionary — or any set value over
// an empty dictionary — is rejected at decode instead of panicking the
// first read of that value.
func TestColumnCodecRejectsStringCodeOutsideDict(t *testing.T) {
	for name, corrupt := range map[string]func(c *Column){
		"code past dict": func(c *Column) { c.codes[1] = uint32(c.dict.Len()) },
		"empty dict":     func(c *Column) { c.dict = NewDict(); c.codes[0] = 0 },
	} {
		c := NewColumn("city", KindString, 3)
		if err := c.Set(0, Str("SF")); err != nil {
			t.Fatal(err)
		}
		if err := c.Set(1, Str("BOS")); err != nil {
			t.Fatal(err)
		}
		corrupt(c)
		w := enc.NewWriter()
		encodeColumn(w, c)
		if _, err := decodeColumn(enc.NewReader(w.Bytes()), 3); err == nil {
			t.Errorf("%s: decode accepted a code outside the dictionary", name)
		}
	}
	// An unset slot's code is never read, so it is not checked.
	c := NewColumn("city", KindString, 2)
	if err := c.Set(0, Str("SF")); err != nil {
		t.Fatal(err)
	}
	c.codes[1] = 99
	w := enc.NewWriter()
	encodeColumn(w, c)
	if _, err := decodeColumn(enc.NewReader(w.Bytes()), 3); err != nil {
		t.Fatalf("unset slot rejected: %v", err)
	}
}
