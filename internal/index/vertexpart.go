package index

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// View1Hop is a 1-hop materialized view: the subset of edges satisfying an
// arbitrary selection predicate over the adjacent edge and its endpoints
// (Section III-B1). No other operators are allowed, so outputs are always a
// subset of the edge table — the property offset lists rely on.
type View1Hop struct {
	Name string
	Pred pred.Predicate
}

// VPDef declares a secondary vertex-partitioned A+ index: the view, the
// directions to index (the paper's FW / BW / FW-BW options), and the nested
// partitioning + sorting configuration.
type VPDef struct {
	View View1Hop
	Dirs []Direction
	Cfg  Config
}

// VertexPartitioned is a secondary vertex-partitioned A+ index storing a
// 1-hop view in offset lists.
type VertexPartitioned struct {
	def     VPDef
	primary *Primary
	dirs    map[Direction]*vpDir
}

type vpDir struct {
	lists  *csr.OffsetLists
	levels []level // nil when sharing the primary's levels
	shared bool
	buf    map[uint32][]bufEntry
}

// BuildVertexPartitioned materializes the view and builds offset lists for
// each requested direction. When the view has no predicate and the config's
// partitioning matches the primary's, the partition levels of the primary
// are shared and cost no memory (Section III-B3).
func BuildVertexPartitioned(p *Primary, def VPDef) (*VertexPartitioned, error) {
	if err := def.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(def.Dirs) == 0 {
		return nil, fmt.Errorf("index: view %q: at least one direction required", def.View.Name)
	}
	for _, t := range def.View.Pred.Terms {
		if t.UsesBound() {
			return nil, fmt.Errorf("index: 1-hop view %q cannot reference eb", def.View.Name)
		}
	}
	v := &VertexPartitioned{def: def, primary: p, dirs: make(map[Direction]*vpDir)}
	for _, dir := range def.Dirs {
		d, err := v.buildDir(dir)
		if err != nil {
			return nil, err
		}
		v.dirs[dir] = d
	}
	return v, nil
}

func (v *VertexPartitioned) buildDir(dir Direction) (*vpDir, error) {
	p := v.primary
	g := p.g
	shared := v.def.View.Pred.IsTrue() && v.def.Cfg.SameStructure(p.cfg)
	d := &vpDir{shared: shared, buf: make(map[uint32][]bufEntry)}

	var builder *csr.OffsetBuilder
	var levels []level
	var err error
	if shared {
		builder = csr.NewSharedOffsetBuilder(p.dirCSR(dir))
		levels = p.levels
	} else {
		levels, err = buildLevels(g, v.def.Cfg.Partitions)
		if err != nil {
			return nil, err
		}
		d.levels = levels
		builder = csr.NewOffsetBuilder(g.NumVertices(), levelCards(levels))
	}

	resolved := v.def.View.Pred.ResolveNbr(dir == FW).Bind(g)
	sorts := bindSorts(g, v.def.Cfg.Sorts)
	c := p.dirCSR(dir)
	nbrs, eids := c.Nbrs(), c.EIDs()
	var codeBuf []uint16
	for owner := uint32(0); owner < uint32(g.NumVertices()); owner++ {
		lo, hi := c.OwnerRange(owner)
		for pos := lo; pos < hi; pos++ {
			e := storage.EdgeID(eids[pos])
			nbr := storage.VertexID(nbrs[pos])
			if !resolved.IsTrue() && !resolved.Eval(pred.EdgeCtx{Adj: e}) {
				continue
			}
			codeBuf = codesFor(levels, e, nbr, codeBuf)
			builder.Add(csr.OffsetEntry{
				Owner:  owner,
				Offset: pos - lo,
				Sort:   sorts.ordinals(e, nbr),
			}, codeBuf)
		}
	}
	d.lists = builder.Build(func(owner uint32) uint32 {
		return p.OwnerLen(dir, storage.VertexID(owner))
	})
	return d, nil
}

// Name returns the view name.
func (v *VertexPartitioned) Name() string { return v.def.View.Name }

// Def returns the index definition.
func (v *VertexPartitioned) Def() VPDef { return v.def }

// HasDirection reports whether dir was indexed.
func (v *VertexPartitioned) HasDirection(dir Direction) bool {
	_, ok := v.dirs[dir]
	return ok
}

// SharedLevels reports whether dir shares the primary's partition levels.
func (v *VertexPartitioned) SharedLevels(dir Direction) bool {
	d, ok := v.dirs[dir]
	return ok && d.shared
}

// LevelCards returns the cardinality of each partitioning level of dir.
func (v *VertexPartitioned) LevelCards(dir Direction) []int {
	d := v.dirs[dir]
	if d.shared {
		return levelCards(v.primary.levels)
	}
	return levelCards(d.levels)
}

// ResolveCodes maps partition values to bucket codes for this index.
func (v *VertexPartitioned) ResolveCodes(dir Direction, vals []storage.Value) ([]uint16, bool) {
	d := v.dirs[dir]
	levels := d.levels
	if d.shared {
		levels = v.primary.levels
	}
	if len(vals) > len(levels) {
		panic("index: more partition values than levels")
	}
	codes := make([]uint16, len(vals))
	for i, val := range vals {
		b, ok := levels[i].cat.BucketOf(val)
		if !ok {
			return nil, false
		}
		codes[i] = b
	}
	return codes, true
}

// List returns the view's adjacency list of owner under dir restricted to a
// bucket-code prefix, merging any pending update buffer.
func (v *VertexPartitioned) List(dir Direction, owner storage.VertexID, codes []uint16) AdjList {
	d := v.dirs[dir]
	baseNbrs, baseEids := v.primary.ownerSlices(dir, owner)
	base := OffsetList(d.lists.BucketList(uint32(owner), codes), baseNbrs, baseEids)
	buf := d.buf[uint32(owner)]
	if len(buf) == 0 && v.primary.tombstones == 0 {
		return base
	}
	matching := filterPrefix(buf, codes)
	if len(matching) == 0 && v.primary.tombstones == 0 {
		return base
	}
	levels := d.levels
	if d.shared {
		levels = v.primary.levels
	}
	return mergeBuffered(v.primary.g, base, matching, levels, v.def.Cfg.Sorts, v.primary.tombstones > 0)
}

// Pred returns the view predicate (with vnbr unresolved).
func (v *VertexPartitioned) Pred() pred.Predicate { return v.def.View.Pred }

// ResolvedPred returns the view predicate with vnbr bound to dir.
func (v *VertexPartitioned) ResolvedPred(dir Direction) pred.Predicate {
	return v.def.View.Pred.ResolveNbr(dir == FW)
}

// Config returns the index configuration.
func (v *VertexPartitioned) Config() Config { return v.def.Cfg }

// EffectiveSorts returns the complete ordering of the innermost lists.
func (v *VertexPartitioned) EffectiveSorts() []SortKey {
	return append(append([]SortKey(nil), v.def.Cfg.Sorts...), NbrIDSort)
}

// applyInsert buffers a freshly inserted edge if it passes the view
// predicate, for every indexed direction. ok is false when a rebuild is
// required (unknown categorical value).
func (v *VertexPartitioned) applyInsert(e storage.EdgeID) bool {
	g := v.primary.g
	sorts := bindSorts(g, v.def.Cfg.Sorts)
	for dir, d := range v.dirs {
		resolved := v.def.View.Pred.ResolveNbr(dir == FW).Bind(g)
		if !resolved.IsTrue() && !resolved.Eval(pred.EdgeCtx{Adj: e}) {
			continue
		}
		owner, nbr := g.Src(e), g.Dst(e)
		if dir == BW {
			owner, nbr = nbr, owner
		}
		levels := d.levels
		if d.shared {
			levels = v.primary.levels
		}
		var ic insertCoder
		ic.bind(g, levels)
		codes, ok := ic.codes(e, nbr)
		if !ok {
			return false
		}
		d.buf[uint32(owner)] = append(d.buf[uint32(owner)], bufEntry{
			nbr: uint32(nbr), eid: uint64(e),
			sort:  sorts.ordinals(e, nbr),
			codes: codes,
		})
	}
	return true
}

// rebuild reconstructs the offset lists after the primary was rebuilt.
func (v *VertexPartitioned) rebuild() error {
	for dir := range v.dirs {
		d, err := v.buildDir(dir)
		if err != nil {
			return err
		}
		v.dirs[dir] = d
	}
	return nil
}

// NumIndexedEdges returns the total number of stored (direction, edge)
// entries.
func (v *VertexPartitioned) NumIndexedEdges() int64 {
	var n int64
	for _, d := range v.dirs {
		n += int64(d.lists.Len())
	}
	return n
}

// MemoryBytes estimates the footprint of the index (shared partition levels
// cost nothing).
func (v *VertexPartitioned) MemoryBytes() int64 {
	var b int64
	for _, d := range v.dirs {
		b += d.lists.MemoryBytes()
	}
	return b
}
