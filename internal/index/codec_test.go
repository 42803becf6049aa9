package index

import (
	"testing"

	"github.com/aplusdb/aplus/internal/enc"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// buildCodecStore assembles a store with a multi-level primary, a
// vertex-partitioned view, and an edge-partitioned view over a small
// money-transfer graph.
func buildCodecStore(t *testing.T) *Store {
	t.Helper()
	g := storage.NewGraph()
	n := 8
	cities := []string{"Oslo", "Lima", "", "Oslo", "Kyiv", "Lima", "", "Pune"}
	for i := 0; i < n; i++ {
		v := g.AddVertex("Account")
		if cities[i] != "" {
			if err := g.SetVertexProp(v, "city", storage.Str(cities[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	add := func(s, d int, label, cur string, amt int64) {
		e, err := g.AddEdge(storage.VertexID(s), storage.VertexID(d), label)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetEdgeProp(e, "currency", storage.Str(cur)); err != nil {
			t.Fatal(err)
		}
		if err := g.SetEdgeProp(e, "amt", storage.Int(amt)); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, "W", "EUR", 100)
	add(1, 2, "W", "USD", 20)
	add(2, 3, "DD", "EUR", 35)
	add(3, 0, "W", "EUR", 60)
	add(0, 2, "DD", "GBP", 11)
	add(2, 0, "W", "USD", 70)
	add(4, 5, "W", "EUR", 5)
	add(5, 6, "DD", "USD", 45)
	_ = g.DeleteEdge(5)

	cfg := Config{
		Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}, {Var: pred.VarAdj, Prop: "currency"}},
		Sorts:      []SortKey{{Var: pred.VarAdj, Prop: "amt"}},
	}
	s, err := NewStore(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateVertexPartitioned(VPDef{
		View: View1Hop{Name: "BigEUR", Pred: pred.Predicate{}.
			And(pred.ConstTerm(pred.VarAdj, "currency", pred.EQ, storage.Str("EUR"))).
			And(pred.ConstTerm(pred.VarAdj, "amt", pred.GE, storage.Int(30)))},
		Dirs: []Direction{FW, BW},
		Cfg:  Config{Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEdgePartitioned(EPDef{
		View: View2Hop{Name: "Flow", Dir: DestinationFW, Pred: pred.Predicate{}.
			And(pred.VarTermShift(pred.VarBound, "amt", pred.LT, pred.VarAdj, "amt", 50))},
		Cfg: Config{Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// roundTrip encodes s with its graph and decodes the image again.
func roundTrip(t *testing.T, s *Store) *Store {
	t.Helper()
	w := enc.NewWriter()
	storage.EncodeGraph(w, s.Graph())
	EncodeStore(w, s)

	r := enc.NewReader(w.Bytes())
	g2, err := storage.DecodeGraph(r)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeStore(r, g2, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rest() != 0 {
		t.Fatalf("%d bytes left after decode", r.Rest())
	}
	return s2
}

// TestStoreCodecRoundTrip reopens stores of several shapes — multi-level,
// unpartitioned, default and vertex-property partitions, edge and
// neighbour sorts, a deleted edge, VP and EP views — and requires each
// rebuilt store to equal the encoded one element for element.
func TestStoreCodecRoundTrip(t *testing.T) {
	base := buildCodecStore(t)
	for _, cfg := range []Config{
		base.primary.cfg,
		{},
		DefaultConfig(),
		{
			Partitions: []PartitionKey{{Var: pred.VarNbr, Prop: "city"}},
			Sorts:      []SortKey{{Var: pred.VarNbr, Prop: "city"}, {Var: pred.VarAdj, Prop: "amt"}},
		},
	} {
		s, err := base.CloneRebuilt(base.Graph(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s2 := roundTrip(t, s)
		compareStores(t, "config "+cfg.String(), s, s2)
		if len(s2.vps) != 1 || len(s2.eps) != 1 || s2.vps[0].Name() != "BigEUR" || s2.eps[0].Name() != "Flow" {
			t.Fatalf("config %v: secondaries not restored", cfg)
		}
		if s2.vps[0].NumIndexedEdges() != s.vps[0].NumIndexedEdges() || s2.eps[0].NumIndexedEdges() != s.eps[0].NumIndexedEdges() {
			t.Fatalf("config %v: secondary entry counts differ", cfg)
		}
	}
}

func TestStoreCodecCorruption(t *testing.T) {
	s := buildCodecStore(t)
	w := enc.NewWriter()
	storage.EncodeGraph(w, s.Graph())
	mark := w.Len()
	EncodeStore(w, s)
	full := w.Bytes()

	// Truncations inside the store image must fail decode, never panic.
	for _, cut := range []int{mark, mark + 1, mark + (len(full)-mark)/2, len(full) - 1} {
		r := enc.NewReader(full[:cut])
		g2, err := storage.DecodeGraph(r)
		if err != nil {
			t.Fatalf("graph section should be intact at cut %d: %v", cut, err)
		}
		if _, err := DecodeStore(r, g2, false); err == nil {
			t.Fatalf("store truncation at %d accepted", cut)
		}
	}
}

func TestConfigCodecRoundTrip(t *testing.T) {
	cfgs := []Config{
		{},
		DefaultConfig(),
		{
			Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}, {Var: pred.VarNbr, Prop: "city"}},
			Sorts:      []SortKey{{Var: pred.VarNbr, Prop: "age"}, {Var: pred.VarAdj, Prop: "amt"}},
		},
	}
	for _, cfg := range cfgs {
		w := enc.NewWriter()
		EncodeConfig(w, cfg)
		got := DecodeConfig(enc.NewReader(w.Bytes()))
		if got.String() != cfg.String() {
			t.Fatalf("config %q vs %q", got, cfg)
		}
	}
}

// TestDiffStoresCatchesOneEntry: one changed primary entry or edge bound
// makes DiffStores fail, so the parity gates built on it compare the
// lists themselves, not only the definitions a checkpoint image holds.
func TestDiffStoresCatchesOneEntry(t *testing.T) {
	s := buildCodecStore(t)
	for name, mutate := range map[string]func(p *Primary){
		"fw nbr":     func(p *Primary) { p.fw.Nbrs()[0]++ },
		"bw eid":     func(p *Primary) { p.bw.EIDs()[p.bw.Len()-1]++ },
		"edge bound": func(p *Primary) { p.edgeBound++ },
	} {
		c, err := s.CloneRebuilt(s.Graph(), s.primary.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := DiffStores(s, c); err != nil {
			t.Fatalf("fresh rebuild: %v", err)
		}
		mutate(c.primary)
		if DiffStores(s, c) == nil {
			t.Errorf("%s: change not detected", name)
		}
	}
}

// TestPartitionBucketSpaceBounded: a configuration whose partition levels
// multiply past maxBucketsPerOwner — here 25 nested label levels, 3^25
// buckets, which would overflow the uint32 bucket strides — is refused
// with an error instead of panicking the build.
func TestPartitionBucketSpaceBounded(t *testing.T) {
	s := buildCodecStore(t)
	var cfg Config
	for i := 0; i < 25; i++ {
		cfg.Partitions = append(cfg.Partitions, PartitionKey{Var: pred.VarAdj, Prop: pred.PropLabel})
	}
	if _, err := NewStore(s.Graph(), cfg); err == nil {
		t.Fatal("NewStore accepted 3^25 buckets per owner")
	}
	if _, err := s.CreateVertexPartitioned(VPDef{View: View1Hop{Name: "Deep"}, Dirs: []Direction{FW}, Cfg: cfg}); err == nil {
		t.Fatal("CreateVertexPartitioned accepted 3^25 buckets per owner")
	}
}
