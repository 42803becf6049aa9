// Package index implements the A+ index subsystem, the paper's primary
// contribution: reconfigurable primary indexes (Section III-A), secondary
// vertex-partitioned indexes over 1-hop views (Section III-B1), secondary
// edge-partitioned indexes over 2-hop views (Section III-B2), offset-list
// storage (Section III-B3), the INDEX STORE consulted by the optimizer
// (Section IV-A), and maintenance with update buffers and tombstones
// (Section IV-C).
package index

import (
	"fmt"
	"strings"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Direction selects the forward or backward variant of a vertex-partitioned
// index: forward lists are owned by the edge's source, backward lists by its
// destination.
type Direction uint8

const (
	// FW is the forward direction (owner = source vertex).
	FW Direction = iota
	// BW is the backward direction (owner = destination vertex).
	BW
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == FW {
		return "FW"
	}
	return "BW"
}

// PartitionKey is one nested partitioning criterion: a categorical property
// (or label) of the adjacent edge or the neighbour vertex.
type PartitionKey struct {
	Var  pred.Var // VarAdj or VarNbr
	Prop string   // pred.PropLabel or a categorical property name
}

// String implements fmt.Stringer.
func (k PartitionKey) String() string { return k.Var.String() + "." + k.Prop }

// SortKey is one sorting criterion applied to the innermost lists, ahead of
// the implicit (neighbour ID, edge ID) tiebreak.
type SortKey struct {
	Var  pred.Var // VarAdj or VarNbr
	Prop string
}

// String implements fmt.Stringer.
func (k SortKey) String() string { return k.Var.String() + "." + k.Prop }

// NbrIDSort is the default sort criterion of primary A+ indexes.
var NbrIDSort = SortKey{Var: pred.VarNbr, Prop: pred.PropID}

// Config is the tunable part of an A+ index: the nested partitioning levels
// after the owner level, and the sort criteria of the innermost lists.
type Config struct {
	Partitions []PartitionKey
	Sorts      []SortKey
}

// DefaultConfig is GraphflowDB's default: partition by edge label, sort by
// neighbour ID (Section III-A: "by default we adopt a second level
// partitioning by edge labels and sort the most granular lists according to
// the IDs of the neighbours").
func DefaultConfig() Config {
	return Config{
		Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}},
		Sorts:      nil,
	}
}

// SortSignature canonically names the effective ordering of the innermost
// lists. Two lists can be intersected only if their signatures match
// (Section IV-A: the optimizer "checks that the sorting criterion on the
// indices that are returned are the same").
func (c Config) SortSignature() string {
	if len(c.Sorts) == 0 {
		return NbrIDSort.String()
	}
	parts := make([]string, len(c.Sorts))
	for i, s := range c.Sorts {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// SameStructure reports whether two configs have identical partitioning
// levels — the precondition for a secondary index to share the primary's
// partition levels.
func (c Config) SameStructure(o Config) bool {
	if len(c.Partitions) != len(o.Partitions) {
		return false
	}
	for i := range c.Partitions {
		if c.Partitions[i] != o.Partitions[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c Config) String() string {
	parts := make([]string, len(c.Partitions))
	for i, p := range c.Partitions {
		parts[i] = p.String()
	}
	return fmt.Sprintf("partition[%s] sort[%s]", strings.Join(parts, ","), c.SortSignature())
}

// Validate checks that the config is expressible: partition keys must be
// labels or categorical properties of eadj/vnbr, and at most csr.MaxSortKeys
// sort criteria are supported.
func (c Config) Validate() error {
	for _, p := range c.Partitions {
		if p.Var != pred.VarAdj && p.Var != pred.VarNbr {
			return fmt.Errorf("index: partition key %v must reference eadj or vnbr", p)
		}
		if p.Prop == pred.PropID {
			return fmt.Errorf("index: cannot partition on IDs (vertex IDs are the owner level)")
		}
	}
	if len(c.Sorts) > 2 {
		return fmt.Errorf("index: at most 2 sort criteria are supported, got %d", len(c.Sorts))
	}
	for _, s := range c.Sorts {
		if s.Var != pred.VarAdj && s.Var != pred.VarNbr {
			return fmt.Errorf("index: sort key %v must reference eadj or vnbr", s)
		}
	}
	return nil
}

// level pairs a partition key with the categorical encoding backing it.
type level struct {
	key PartitionKey
	cat *storage.Categorical
}

// maxBucketsPerOwner bounds the product of the partition levels'
// cardinalities. Bucket addresses are uint32 products of per-level codes,
// and each owner spends one offset per bucket, so a deeper product would
// overflow the address arithmetic or allocate offsets for buckets that
// can hold no edge.
const maxBucketsPerOwner = 1 << 16

// buildLevels resolves the categorical encodings for each partition key.
func buildLevels(g *storage.Graph, keys []PartitionKey) ([]level, error) {
	levels := make([]level, len(keys))
	buckets := 1
	for i, k := range keys {
		var cat *storage.Categorical
		var err error
		switch {
		case k.Var == pred.VarAdj && k.Prop == pred.PropLabel:
			cat = g.EdgeLabelCategorical()
		case k.Var == pred.VarAdj:
			cat, err = g.EdgePropCategorical(k.Prop)
		case k.Var == pred.VarNbr && k.Prop == pred.PropLabel:
			cat = g.VertexLabelCategorical()
		case k.Var == pred.VarNbr:
			cat, err = g.VertexPropCategorical(k.Prop)
		default:
			err = fmt.Errorf("index: unsupported partition key %v", k)
		}
		if err != nil {
			return nil, err
		}
		if buckets *= cat.Cardinality; buckets > maxBucketsPerOwner {
			return nil, fmt.Errorf("index: partition levels %v span more than %d buckets per owner", keys, maxBucketsPerOwner)
		}
		levels[i] = level{key: k, cat: cat}
	}
	return levels, nil
}

func levelCards(levels []level) []int {
	cards := make([]int, len(levels))
	for i, l := range levels {
		cards[i] = l.cat.Cardinality
	}
	return cards
}

// codesFor computes the bucket codes of one adjacency entry (edge e with
// neighbour nbr) at every level.
func codesFor(levels []level, e storage.EdgeID, nbr storage.VertexID, buf []uint16) []uint16 {
	buf = buf[:0]
	for _, l := range levels {
		if l.key.Var == pred.VarAdj {
			buf = append(buf, l.cat.Codes[e])
		} else {
			buf = append(buf, l.cat.Codes[nbr])
		}
	}
	return buf
}

// insertCoder computes bucket codes for freshly inserted edges, falling
// back to reading the partitioning value when the edge or vertex postdates
// the categorical encoding. The value reads are bound to the graph when the
// coder is made, after the inserted edge's properties are set and outside
// any per-entry loop: a copy-on-write graph may still detach a column on
// its next property write.
type insertCoder struct {
	levels []level
	vals   []pred.BoundOperand
}

// bind (re)binds the coder to levels over g, reusing its buffer, so a
// long-lived coder rebinds per insert without allocating.
func (ic *insertCoder) bind(g *storage.Graph, levels []level) {
	ic.levels = levels
	ic.vals = ic.vals[:0]
	for _, l := range levels {
		ic.vals = append(ic.vals, pred.BindProp(g, l.key.Var == pred.VarAdj, l.key.Prop, 0))
	}
}

// codes returns the bucket codes of the adjacency entry (edge e,
// neighbour nbr). ok is false when a value has no bucket (a brand-new
// categorical value), in which case the caller must trigger a full
// rebuild.
func (ic *insertCoder) codes(e storage.EdgeID, nbr storage.VertexID) ([]uint16, bool) {
	out := make([]uint16, len(ic.levels))
	for i, l := range ic.levels {
		idx := uint64(nbr)
		if l.key.Var == pred.VarAdj {
			idx = uint64(e)
		}
		if idx < uint64(len(l.cat.Codes)) {
			out[i] = l.cat.Codes[idx]
			continue
		}
		b, ok := l.cat.BucketOf(ic.vals[i].Value(idx))
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// BoundSortKey is a SortKey resolved against one graph: the property
// column (or the ID or label table) is looked up once, so computing an
// entry's ordinal is an array read. Ordinals order entries identically to
// comparing the underlying values, with NULLs last. A binding is valid for
// the graph it was made over; bind once per build or execution, outside
// the per-entry loops.
type BoundSortKey struct {
	key SortKey
	g   *storage.Graph
	col *storage.Column // property keys; nil when g has no such column
}

// BindSortKey resolves k against g.
func BindSortKey(g *storage.Graph, k SortKey) BoundSortKey {
	b := BoundSortKey{key: k, g: g}
	if k.Prop != pred.PropID && k.Prop != pred.PropLabel {
		if k.Var == pred.VarNbr {
			b.col, _ = g.VertexColumn(k.Prop)
		} else {
			b.col, _ = g.EdgeColumn(k.Prop)
		}
	}
	return b
}

// Ordinal computes the sort ordinal of the adjacency entry (edge e,
// neighbour nbr).
func (b *BoundSortKey) Ordinal(e storage.EdgeID, nbr storage.VertexID) uint64 {
	if b.col != nil {
		if b.key.Var == pred.VarNbr {
			return b.col.SortOrdinal(int(nbr))
		}
		return b.col.SortOrdinal(int(e))
	}
	switch {
	case b.key.Var == pred.VarNbr && b.key.Prop == pred.PropID:
		return uint64(nbr)
	case b.key.Var == pred.VarNbr && b.key.Prop == pred.PropLabel:
		return uint64(b.g.VertexLabel(nbr))
	case b.key.Var == pred.VarAdj && b.key.Prop == pred.PropID:
		return uint64(e)
	case b.key.Var == pred.VarAdj && b.key.Prop == pred.PropLabel:
		return uint64(b.g.EdgeLabel(e))
	}
	return ^uint64(0) // missing property: every entry is NULL
}

// OrdinalOfValue maps a constant to the key's ordinal space so that
// equality segments can be located by binary search. ok is false when the
// value cannot appear under that key.
func (b *BoundSortKey) OrdinalOfValue(v storage.Value) (uint64, bool) {
	if v.IsNull() {
		return ^uint64(0), true
	}
	switch {
	case b.key.Prop == pred.PropID:
		if v.Kind != storage.KindInt {
			return 0, false
		}
		return uint64(uint32(v.I)), true
	case b.key.Prop == pred.PropLabel:
		var id storage.LabelID
		var ok bool
		if b.key.Var == pred.VarNbr {
			id, ok = b.g.Catalog().LookupVertexLabel(v.S)
		} else {
			id, ok = b.g.Catalog().LookupEdgeLabel(v.S)
		}
		if !ok {
			return 0, false
		}
		return uint64(id), true
	case b.col == nil:
		return 0, false
	}
	return valueOrdinal(b.col, v)
}

// boundSorts is an index configuration's sort keys bound to one graph.
type boundSorts struct {
	keys [2]BoundSortKey
	n    int
}

func bindSorts(g *storage.Graph, sorts []SortKey) boundSorts {
	var b boundSorts
	for i, k := range sorts {
		b.keys[i] = BindSortKey(g, k)
	}
	b.n = len(sorts)
	return b
}

// ordinals computes an entry's ordinal under every sort key (unused slots
// stay zero).
func (b *boundSorts) ordinals(e storage.EdgeID, nbr storage.VertexID) [2]uint64 {
	var out [2]uint64
	for i := 0; i < b.n; i++ {
		out[i] = b.keys[i].Ordinal(e, nbr)
	}
	return out
}

// OrdinalOfValue maps a constant to the ordinal space of sort key k over g
// (see BoundSortKey.OrdinalOfValue), for one-off lookups such as planning.
func OrdinalOfValue(g *storage.Graph, k SortKey, v storage.Value) (uint64, bool) {
	b := BindSortKey(g, k)
	return b.OrdinalOfValue(v)
}

func valueOrdinal(col *storage.Column, v storage.Value) (uint64, bool) {
	switch col.Kind {
	case storage.KindInt, storage.KindBool:
		if v.Kind != storage.KindInt && v.Kind != storage.KindBool {
			return 0, false
		}
		return uint64(v.I) ^ (1 << 63), true
	case storage.KindFloat:
		switch v.Kind {
		case storage.KindFloat:
			return storage.FloatOrdinal(v.F), true
		case storage.KindInt:
			return storage.FloatOrdinal(float64(v.I)), true
		}
		return 0, false
	case storage.KindString:
		if v.Kind != storage.KindString {
			return 0, false
		}
		code, ok := col.Dict().Lookup(v.S)
		if !ok {
			return 0, false
		}
		return uint64(col.Dict().Rank(code)), true
	default:
		return 0, false
	}
}
