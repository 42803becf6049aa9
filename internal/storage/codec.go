package storage

// Checkpoint serialization of the storage layer. EncodeGraph writes a
// self-contained image of a graph — catalog, labels, topology, tombstones,
// and every property column including its NULL bitset and string dictionary
// — and DecodeGraph reconstructs an identical graph from it. The format uses
// the internal/enc primitives; framing, checksums, and file handling belong
// to internal/wal.
//
// Derived read-side state is not serialized: the per-label vertex lists are
// recomputed from the label array (ascending-ID order, exactly how AddVertex
// maintains them) and categorical encodings are rebuilt lazily on demand,
// both deterministic functions of the encoded content.

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/enc"
)

// EncodeValue appends one property value.
func EncodeValue(w *enc.Writer, v Value) {
	w.U8(uint8(v.Kind))
	switch v.Kind {
	case KindInt, KindBool:
		w.Varint(v.I)
	case KindFloat:
		w.F64(v.F)
	case KindString:
		w.String(v.S)
	}
}

// DecodeValue reads one property value.
func DecodeValue(r *enc.Reader) Value {
	k := Kind(r.U8())
	switch k {
	case KindNull:
		return NullValue
	case KindInt:
		return Int(r.Varint())
	case KindBool:
		return Bool(r.Varint() != 0)
	case KindFloat:
		return Float(r.F64())
	case KindString:
		return Str(r.String())
	default:
		return NullValue
	}
}

// encodeDict writes a dictionary as its strings in insertion (code) order.
func encodeDict(w *enc.Writer, d *Dict) {
	w.Uvarint(uint64(len(d.strs)))
	for _, s := range d.strs {
		w.String(s)
	}
}

// decodeDict reads a dictionary, rebuilding the code map.
func decodeDict(r *enc.Reader) *Dict {
	n := r.Len(1)
	d := &Dict{codes: make(map[string]uint32, n), strs: make([]string, 0, n)}
	for i := 0; i < n; i++ {
		d.Code(r.String())
	}
	return d
}

func encodeColumn(w *enc.Writer, c *Column) {
	w.String(c.Key)
	w.U8(uint8(c.Kind))
	w.Uvarint(uint64(c.n))
	w.U64s(c.set)
	switch c.Kind {
	case KindInt, KindBool:
		w.I64s(c.ints[:c.n])
	case KindFloat:
		w.F64s(c.floats[:c.n])
	case KindString:
		w.U32s(c.codes[:c.n])
		encodeDict(w, c.dict)
	}
}

// decodeColumn reads one column over a table of at most entities rows.
func decodeColumn(r *enc.Reader, entities int) (*Column, error) {
	c := &Column{Key: r.String(), Kind: Kind(r.U8())}
	n := r.Uvarint()
	if n > uint64(entities) {
		return nil, fmt.Errorf("storage: column %q covers %d rows of a %d-row table", c.Key, n, entities)
	}
	c.n = int(n)
	c.set = r.U64s()
	c.set.grow(c.n)
	switch c.Kind {
	case KindInt, KindBool:
		c.ints = r.I64s()
		if c.ints == nil {
			c.ints = make([]int64, c.n)
		}
	case KindFloat:
		c.floats = r.F64s()
		if c.floats == nil {
			c.floats = make([]float64, c.n)
		}
	case KindString:
		c.codes = r.U32s()
		if c.codes == nil {
			c.codes = make([]uint32, c.n)
		}
		c.dict = decodeDict(r)
	default:
		return nil, fmt.Errorf("storage: column %q has invalid kind %d", c.Key, c.Kind)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(c.ints) != c.n && len(c.floats) != c.n && len(c.codes) != c.n {
		return nil, fmt.Errorf("storage: column %q payload length mismatch", c.Key)
	}
	if c.Kind == KindString {
		// Every set value is read through the dictionary (Dict.String,
		// Dict.Rank), so a code past its end would panic the first read.
		for i := 0; i < c.n; i++ {
			if c.set.has(i) && int(c.codes[i]) >= c.dict.Len() {
				return nil, fmt.Errorf("storage: column %q value %d has string code %d, dictionary holds %d",
					c.Key, i, c.codes[i], c.dict.Len())
			}
		}
	}
	return c, nil
}

func encodeColumns(w *enc.Writer, m map[string]*Column) {
	w.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		encodeColumn(w, m[k])
	}
}

func decodeColumns(r *enc.Reader, entities int) (map[string]*Column, error) {
	n := r.Len(1)
	m := make(map[string]*Column, n)
	for i := 0; i < n; i++ {
		c, err := decodeColumn(r, entities)
		if err != nil {
			return nil, err
		}
		m[c.Key] = c
	}
	return m, nil
}

func sortedKeys(m map[string]*Column) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; property sets are small
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// EncodeGraph appends a complete image of g. The graph must not be mutated
// during encoding (checkpoint callers hand in a frozen snapshot graph).
func EncodeGraph(w *enc.Writer, g *Graph) {
	encodeDict(w, g.catalog.vertexLabels)
	encodeDict(w, g.catalog.edgeLabels)
	vl := make([]uint16, len(g.vertexLabels))
	for i, l := range g.vertexLabels {
		vl[i] = uint16(l)
	}
	w.U16s(vl)
	src := make([]uint32, len(g.src))
	dst := make([]uint32, len(g.dst))
	for i := range g.src {
		src[i], dst[i] = uint32(g.src[i]), uint32(g.dst[i])
	}
	w.U32s(src)
	w.U32s(dst)
	el := make([]uint16, len(g.edgeLabels))
	for i, l := range g.edgeLabels {
		el[i] = uint16(l)
	}
	w.U16s(el)
	w.U64s(g.deleted)
	w.Uvarint(uint64(g.numDeleted))
	encodeColumns(w, g.vertexProps)
	encodeColumns(w, g.edgeProps)
}

// DecodeGraph reconstructs a graph from an EncodeGraph image.
func DecodeGraph(r *enc.Reader) (*Graph, error) {
	g := NewGraph()
	g.catalog = &Catalog{vertexLabels: decodeDict(r), edgeLabels: decodeDict(r)}
	if g.catalog.vertexLabels.Len() == 0 || g.catalog.edgeLabels.Len() == 0 {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("storage: decoded catalog lacks the reserved empty label")
	}
	for _, lid := range r.U16s() {
		if int(lid) >= g.catalog.NumVertexLabels() {
			return nil, fmt.Errorf("storage: vertex label id %d out of catalog range", lid)
		}
		id := VertexID(len(g.vertexLabels))
		g.vertexLabels = append(g.vertexLabels, LabelID(lid))
		g.addToLabelList(LabelID(lid), id)
	}
	src, dst := r.U32s(), r.U32s()
	if len(src) != len(dst) {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("storage: src/dst length mismatch (%d vs %d)", len(src), len(dst))
	}
	g.src = make([]VertexID, len(src))
	g.dst = make([]VertexID, len(dst))
	n := VertexID(len(g.vertexLabels))
	for i := range src {
		if VertexID(src[i]) >= n || VertexID(dst[i]) >= n {
			return nil, fmt.Errorf("storage: edge %d endpoints (%d,%d) out of range [0,%d)", i, src[i], dst[i], n)
		}
		g.src[i], g.dst[i] = VertexID(src[i]), VertexID(dst[i])
	}
	el := r.U16s()
	if len(el) != len(src) {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("storage: edge label length mismatch (%d vs %d)", len(el), len(src))
	}
	g.edgeLabels = make([]LabelID, len(el))
	for i, lid := range el {
		if int(lid) >= g.catalog.NumEdgeLabels() {
			return nil, fmt.Errorf("storage: edge label id %d out of catalog range", lid)
		}
		g.edgeLabels[i] = LabelID(lid)
	}
	g.deleted = r.U64s()
	g.deleted.grow(len(g.src))
	g.numDeleted = int(r.Uvarint())
	var err error
	if g.vertexProps, err = decodeColumns(r, len(g.vertexLabels)); err != nil {
		return nil, err
	}
	if g.edgeProps, err = decodeColumns(r, len(g.src)); err != nil {
		return nil, err
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return g, nil
}
