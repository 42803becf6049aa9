package index

// Checkpoint serialization of the index store. An image holds only what
// the graph cannot rebuild: the primary configuration and the secondary
// index definitions (view name, predicate, directions, configuration). The
// primary must hold every live edge (Section III-A), so its CSRs are a
// deterministic function of the graph and the configuration; secondary
// offset lists are a deterministic function of the primary and the graph.
// Decoding therefore runs the same BuildPrimary and view builds as a full
// fold or a RECONFIGURE, and no checkpoint byte is ever trusted as a list
// entry. Categorical bucket order is content-determined, so the rebuilt
// partition levels and sort ordinals equal those the store was built with.

import (
	"bytes"
	"fmt"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/enc"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

func encodeKey(w *enc.Writer, v pred.Var, prop string) {
	w.U8(uint8(v))
	w.String(prop)
}

// EncodeConfig appends an index configuration.
func EncodeConfig(w *enc.Writer, c Config) {
	w.Uvarint(uint64(len(c.Partitions)))
	for _, p := range c.Partitions {
		encodeKey(w, p.Var, p.Prop)
	}
	w.Uvarint(uint64(len(c.Sorts)))
	for _, s := range c.Sorts {
		encodeKey(w, s.Var, s.Prop)
	}
}

// DecodeConfig reads an index configuration.
func DecodeConfig(r *enc.Reader) Config {
	var c Config
	for n := r.Len(2); n > 0; n-- {
		v := pred.Var(r.U8())
		c.Partitions = append(c.Partitions, PartitionKey{Var: v, Prop: r.String()})
	}
	for n := r.Len(2); n > 0; n-- {
		v := pred.Var(r.U8())
		c.Sorts = append(c.Sorts, SortKey{Var: v, Prop: r.String()})
	}
	return c
}

// EncodePredicate appends a view predicate.
func EncodePredicate(w *enc.Writer, p pred.Predicate) {
	w.Uvarint(uint64(len(p.Terms)))
	for _, t := range p.Terms {
		encodeKey(w, t.Left.Var, t.Left.Prop)
		w.U8(uint8(t.Op))
		encodeKey(w, t.Right.Var, t.Right.Prop)
		storage.EncodeValue(w, t.Const)
		w.Varint(t.Shift)
	}
}

// DecodePredicate reads a view predicate.
func DecodePredicate(r *enc.Reader) pred.Predicate {
	var p pred.Predicate
	for n := r.Len(5); n > 0; n-- {
		var t pred.Term
		t.Left.Var = pred.Var(r.U8())
		t.Left.Prop = r.String()
		t.Op = pred.Op(r.U8())
		t.Right.Var = pred.Var(r.U8())
		t.Right.Prop = r.String()
		t.Const = storage.DecodeValue(r)
		t.Shift = r.Varint()
		p.Terms = append(p.Terms, t)
	}
	return p
}

// EncodeVPDef appends a vertex-partitioned index definition.
func EncodeVPDef(w *enc.Writer, d VPDef) {
	w.String(d.View.Name)
	EncodePredicate(w, d.View.Pred)
	w.Uvarint(uint64(len(d.Dirs)))
	for _, dir := range d.Dirs {
		w.U8(uint8(dir))
	}
	EncodeConfig(w, d.Cfg)
}

// DecodeVPDef reads a vertex-partitioned index definition.
func DecodeVPDef(r *enc.Reader) VPDef {
	var d VPDef
	d.View.Name = r.String()
	d.View.Pred = DecodePredicate(r)
	for n := r.Len(1); n > 0; n-- {
		d.Dirs = append(d.Dirs, Direction(r.U8()))
	}
	d.Cfg = DecodeConfig(r)
	return d
}

// EncodeEPDef appends an edge-partitioned index definition.
func EncodeEPDef(w *enc.Writer, d EPDef) {
	w.String(d.View.Name)
	w.U8(uint8(d.View.Dir))
	EncodePredicate(w, d.View.Pred)
	EncodeConfig(w, d.Cfg)
}

// DecodeEPDef reads an edge-partitioned index definition.
func DecodeEPDef(r *enc.Reader) EPDef {
	var d EPDef
	d.View.Name = r.String()
	d.View.Dir = EPDirection(r.U8())
	d.View.Pred = DecodePredicate(r)
	d.Cfg = DecodeConfig(r)
	return d
}

// EncodeStore appends a checkpoint image of a frozen base store: the primary
// configuration and every secondary index definition. Nothing built from
// the graph is written — DecodeStore rebuilds it.
func EncodeStore(w *enc.Writer, s *Store) {
	EncodeConfig(w, s.primary.cfg)
	w.Uvarint(uint64(len(s.vps)))
	for _, v := range s.vps {
		EncodeVPDef(w, v.def)
	}
	w.Uvarint(uint64(len(s.eps)))
	for _, e := range s.eps {
		EncodeEPDef(w, e.def)
	}
}

// DecodeStore rebuilds a store over g from an EncodeStore image: NewStore
// under the decoded configuration, then each view in its original order.
// legacyCSRs reads an image of the older format, which stored the primary's
// edge bound and both CSRs after the configuration; they are read past
// (length-checked) and never used.
func DecodeStore(r *enc.Reader, g *storage.Graph, legacyCSRs bool) (*Store, error) {
	cfg := DecodeConfig(r)
	if legacyCSRs {
		r.Uvarint() // edge bound
		for i := 0; i < 2; i++ {
			r.Uvarint() // owners
			for n := r.Len(1); n > 0; n-- {
				r.Uvarint() // level cardinality
			}
			r.U32s() // offsets
			r.U32s() // neighbours
			r.U64s() // edge IDs
		}
	}
	var vps []VPDef
	for n := r.Len(1); n > 0; n-- {
		vps = append(vps, DecodeVPDef(r))
	}
	var eps []EPDef
	for n := r.Len(1); n > 0; n-- {
		eps = append(eps, DecodeEPDef(r))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	s, err := NewStore(g, cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range vps {
		if _, err := s.CreateVertexPartitioned(d); err != nil {
			return nil, fmt.Errorf("index: rebuild view %q: %w", d.View.Name, err)
		}
	}
	for _, d := range eps {
		if _, err := s.CreateEdgePartitioned(d); err != nil {
			return nil, fmt.Errorf("index: rebuild view %q: %w", d.View.Name, err)
		}
	}
	return s, nil
}

// DiffStores reports the first difference between two frozen stores, or
// nil when they are indistinguishable: equal edge bounds, both primary CSRs
// equal element for element (csr.Diff), and equal checkpoint images (the
// primary configuration and every view definition). Incremental-fold
// parity gates and checkpoint round-trip tests use it; the image alone
// would compare definitions only.
func DiffStores(a, b *Store) error {
	if a.primary.edgeBound != b.primary.edgeBound {
		return fmt.Errorf("index: edge bound %d vs %d", a.primary.edgeBound, b.primary.edgeBound)
	}
	for _, dir := range []Direction{FW, BW} {
		if err := csr.Diff(a.primary.dirCSR(dir), b.primary.dirCSR(dir)); err != nil {
			return fmt.Errorf("index: primary %v: %w", dir, err)
		}
	}
	wa, wb := enc.NewWriter(), enc.NewWriter()
	EncodeStore(wa, a)
	EncodeStore(wb, b)
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		return fmt.Errorf("index: configurations or view definitions differ (%d vs %d image bytes)", wa.Len(), wb.Len())
	}
	return nil
}
