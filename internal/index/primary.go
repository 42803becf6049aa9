package index

import (
	"sort"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/storage"
)

// Primary is the pair of forward and backward primary A+ indexes. It is
// required to contain every live edge of the graph (Section III-A) and is
// the base that secondary offset lists resolve into. Its nested
// partitioning and sorting are reconfigurable at runtime.
type Primary struct {
	g      *storage.Graph
	cfg    Config
	levels []level
	fw, bw *csr.CSR

	// edgeBound is the graph's edge-slot count when the CSRs were built;
	// edges at or past it live only in snapshot delta overlays until the
	// next merge.
	edgeBound storage.EdgeID

	// Maintenance state (Section IV-C): per-owner update buffers holding
	// freshly inserted edges until the next merge, plus a count of pending
	// tombstones that forces lists to filter deleted edges.
	fwBuf, bwBuf map[uint32][]bufEntry
	buffered     int
	tombstones   int
}

type bufEntry struct {
	nbr   uint32
	eid   uint64
	sort  [2]uint64
	codes []uint16
}

// BuildPrimary constructs the primary indexes over every live edge of g
// under the given configuration.
func BuildPrimary(g *storage.Graph, cfg Config) (*Primary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	levels, err := buildLevels(g, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	p := &Primary{
		g:         g,
		cfg:       cfg,
		levels:    levels,
		edgeBound: storage.EdgeID(g.NumEdges()),
		fwBuf:     make(map[uint32][]bufEntry),
		bwBuf:     make(map[uint32][]bufEntry),
	}
	cards := levelCards(levels)
	fb := csr.NewBuilder(g.NumVertices(), cards)
	bb := csr.NewBuilder(g.NumVertices(), cards)
	fb.Reserve(g.NumLiveEdges())
	bb.Reserve(g.NumLiveEdges())
	sorts := bindSorts(g, cfg.Sorts)
	var buf []uint16
	for i := 0; i < g.NumEdges(); i++ {
		e := storage.EdgeID(i)
		if g.EdgeDeleted(e) {
			continue
		}
		src, dst := g.Src(e), g.Dst(e)
		buf = codesFor(levels, e, dst, buf)
		fb.Add(csr.Entry{
			Owner: uint32(src), Nbr: uint32(dst), EID: uint64(e),
			Sort: sorts.ordinals(e, dst),
		}, buf)
		buf = codesFor(levels, e, src, buf)
		bb.Add(csr.Entry{
			Owner: uint32(dst), Nbr: uint32(src), EID: uint64(e),
			Sort: sorts.ordinals(e, src),
		}, buf)
	}
	p.fw = fb.Build()
	p.bw = bb.Build()
	return p, nil
}

// Graph returns the underlying graph.
func (p *Primary) Graph() *storage.Graph { return p.g }

// Config returns the active configuration.
func (p *Primary) Config() Config { return p.cfg }

// NumLevels returns the number of nested partitioning levels.
func (p *Primary) NumLevels() int { return len(p.levels) }

// LevelCards returns the cardinality of each partitioning level (used by
// the optimizer to expand bucket choices for sorted access).
func (p *Primary) LevelCards() []int { return levelCards(p.levels) }

func (p *Primary) dirCSR(dir Direction) *csr.CSR {
	if dir == FW {
		return p.fw
	}
	return p.bw
}

func (p *Primary) dirBuf(dir Direction) map[uint32][]bufEntry {
	if dir == FW {
		return p.fwBuf
	}
	return p.bwBuf
}

// ResolveCodes maps a prefix of partition-key values to bucket codes. It
// returns ok=false when some value can never occur, meaning the matching
// list is provably empty.
func (p *Primary) ResolveCodes(vals []storage.Value) ([]uint16, bool) {
	if len(vals) > len(p.levels) {
		panic("index: more partition values than levels")
	}
	codes := make([]uint16, len(vals))
	for i, v := range vals {
		b, ok := p.levels[i].cat.BucketOf(v)
		if !ok {
			return nil, false
		}
		codes[i] = b
	}
	return codes, true
}

// EdgeBound returns the graph's edge-slot count when the CSRs were built;
// edges at or past it are absent from the base and live in delta overlays.
func (p *Primary) EdgeBound() storage.EdgeID { return p.edgeBound }

// List returns the adjacency list of v under dir, restricted to the bucket
// prefix codes (possibly empty = the whole neighbourhood). Pending update
// buffers and tombstones are merged in, preserving sort order. Vertices
// added after the build (snapshot deltas) have an empty base list.
func (p *Primary) List(dir Direction, v storage.VertexID, codes []uint16) AdjList {
	c := p.dirCSR(dir)
	var base AdjList
	if int(v) < c.NumOwners() {
		lo, hi := c.PrefixRange(uint32(v), codes)
		base = DirectList(c.Nbrs()[lo:hi], c.EIDs()[lo:hi])
	}
	buf := p.dirBuf(dir)[uint32(v)]
	if len(buf) == 0 && p.tombstones == 0 {
		return base
	}
	return p.mergeList(dir, base, buf, codes, v)
}

// OwnerList returns the full list of v under dir — the range secondary
// offsets resolve into.
func (p *Primary) OwnerList(dir Direction, v storage.VertexID) AdjList {
	return p.List(dir, v, nil)
}

// ownerSlices returns the raw owner-range arrays for offset resolution.
func (p *Primary) ownerSlices(dir Direction, v storage.VertexID) ([]uint32, []uint64) {
	c := p.dirCSR(dir)
	if int(v) >= c.NumOwners() {
		return nil, nil
	}
	lo, hi := c.OwnerRange(uint32(v))
	return c.Nbrs()[lo:hi], c.EIDs()[lo:hi]
}

// OwnerLen returns the number of entries in v's full list under dir,
// excluding pending buffers (the sizing basis for offset widths).
func (p *Primary) OwnerLen(dir Direction, v storage.VertexID) uint32 {
	c := p.dirCSR(dir)
	if int(v) >= c.NumOwners() {
		return 0
	}
	lo, hi := c.OwnerRange(uint32(v))
	return hi - lo
}

// Deg returns the merged degree of v under dir, including buffers.
func (p *Primary) Deg(dir Direction, v storage.VertexID) int {
	return p.List(dir, v, nil).Len()
}

// mergeList merges buffered inserts into a base list and filters
// tombstones, preserving the index order (bucket codes, sort keys,
// neighbour ID, edge ID).
func (p *Primary) mergeList(dir Direction, base AdjList, buf []bufEntry, codes []uint16, v storage.VertexID) AdjList {
	matching := filterPrefix(buf, codes)
	if len(matching) == 0 && p.tombstones == 0 {
		return base
	}
	return mergeBuffered(p.g, base, matching, p.levels, p.cfg.Sorts, p.tombstones > 0)
}

// filterPrefix keeps buffered entries whose bucket codes start with prefix.
func filterPrefix(buf []bufEntry, prefix []uint16) []bufEntry {
	matching := make([]bufEntry, 0, len(buf))
	for _, be := range buf {
		if prefixMatches(be.codes, prefix) {
			matching = append(matching, be)
		}
	}
	return matching
}

// mergeBuffered interleaves buffered entries into a base list in full index
// order and drops tombstoned edges. Base entries' bucket codes are
// recomputed from the levels (they are always in range: the CSR and its
// levels are rebuilt together).
func mergeBuffered(g *storage.Graph, base AdjList, matching []bufEntry, levels []level, sorts []SortKey, filterDeleted bool) AdjList {
	sort.Slice(matching, func(i, j int) bool { return bufLess(matching[i], matching[j]) })
	n := base.Len()
	nbrs := make([]uint32, 0, n+len(matching))
	eids := make([]uint64, 0, n+len(matching))
	bi := 0
	bs := bindSorts(g, sorts)
	var codeBuf []uint16
	for i := 0; i < n; i++ {
		nb, e := base.Get(i)
		if filterDeleted && g.EdgeDeleted(e) {
			continue
		}
		codeBuf = codesFor(levels, e, nb, codeBuf)
		cur := bufEntry{nbr: uint32(nb), eid: uint64(e), sort: bs.ordinals(e, nb), codes: codeBuf}
		for bi < len(matching) && bufLess(matching[bi], cur) {
			nbrs = append(nbrs, matching[bi].nbr)
			eids = append(eids, matching[bi].eid)
			bi++
		}
		nbrs = append(nbrs, uint32(nb))
		eids = append(eids, uint64(e))
	}
	for ; bi < len(matching); bi++ {
		nbrs = append(nbrs, matching[bi].nbr)
		eids = append(eids, matching[bi].eid)
	}
	return DirectList(nbrs, eids)
}

func bufLess(a, b bufEntry) bool {
	for i := 0; i < len(a.codes) && i < len(b.codes); i++ {
		if a.codes[i] != b.codes[i] {
			return a.codes[i] < b.codes[i]
		}
	}
	if a.sort != b.sort {
		return a.sort[0] < b.sort[0] || (a.sort[0] == b.sort[0] && a.sort[1] < b.sort[1])
	}
	if a.nbr != b.nbr {
		return a.nbr < b.nbr
	}
	return a.eid < b.eid
}

func prefixMatches(entryCodes, prefix []uint16) bool {
	for i, c := range prefix {
		if entryCodes[i] != c {
			return false
		}
	}
	return true
}

// applyInsert buffers a freshly inserted edge in both directions. ok is
// false when the edge carries a categorical value unknown to the current
// partition levels, which requires a rebuild instead.
func (p *Primary) applyInsert(e storage.EdgeID) bool {
	src, dst := p.g.Src(e), p.g.Dst(e)
	var ic insertCoder
	ic.bind(p.g, p.levels)
	fwCodes, ok1 := ic.codes(e, dst)
	bwCodes, ok2 := ic.codes(e, src)
	if !ok1 || !ok2 {
		return false
	}
	sorts := bindSorts(p.g, p.cfg.Sorts)
	p.fwBuf[uint32(src)] = append(p.fwBuf[uint32(src)], bufEntry{
		nbr: uint32(dst), eid: uint64(e), sort: sorts.ordinals(e, dst), codes: fwCodes,
	})
	p.bwBuf[uint32(dst)] = append(p.bwBuf[uint32(dst)], bufEntry{
		nbr: uint32(src), eid: uint64(e), sort: sorts.ordinals(e, src), codes: bwCodes,
	})
	p.buffered++
	return true
}

// applyDelete records a tombstone (the graph itself marks the edge).
func (p *Primary) applyDelete() { p.tombstones++ }

// pendingWork reports the amount of buffered maintenance state.
func (p *Primary) pendingWork() int { return p.buffered + p.tombstones }

// rebuild reconstructs the CSRs from the graph and clears buffers.
func (p *Primary) rebuild() error {
	// Vertices may have been added since the last build; the level
	// categoricals may also have grown.
	levels, err := buildLevels(p.g, p.cfg.Partitions)
	if err != nil {
		return err
	}
	p.levels = levels
	fresh, err := BuildPrimary(p.g, p.cfg)
	if err != nil {
		return err
	}
	p.fw, p.bw = fresh.fw, fresh.bw
	p.levels = fresh.levels
	p.edgeBound = fresh.edgeBound
	p.fwBuf = make(map[uint32][]bufEntry)
	p.bwBuf = make(map[uint32][]bufEntry)
	p.buffered = 0
	p.tombstones = 0
	return nil
}

// MemoryBytes reports (partition levels, ID lists) bytes across both
// directions.
func (p *Primary) MemoryBytes() (levels, idLists int64) {
	fl, fi := p.fw.MemoryBytes()
	bl, bi := p.bw.MemoryBytes()
	return fl + bl, fi + bi
}

// PartitionKeys returns the configured partition keys.
func (p *Primary) PartitionKeys() []PartitionKey { return p.cfg.Partitions }

// SortKeys returns the configured sort keys (nil means neighbour-ID order).
func (p *Primary) SortKeys() []SortKey { return p.cfg.Sorts }

// EffectiveSorts returns the sort keys with the implicit neighbour-ID
// tiebreak appended, which is the complete ordering of the innermost lists.
func (p *Primary) EffectiveSorts() []SortKey {
	return append(append([]SortKey(nil), p.cfg.Sorts...), NbrIDSort)
}
