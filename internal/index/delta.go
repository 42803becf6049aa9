package index

import (
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Delta is an immutable overlay of committed-but-unmerged writes over a
// frozen base Store: per-owner, per-direction insert runs (kept in full
// index order, mirroring the primary's offset-list layout) plus per-owner
// delete records and a global pending-delete set. A snapshot pairs one
// Delta with one frozen base; readers splice the overlay into primary list
// fetches (Splice) without any locking, and a background merger eventually
// folds the overlay back into block-packed CSR form.
//
// A published Delta is never mutated. Commits derive a successor with
// DeltaBuilder, which copies every map and every owner slice it touches;
// the append-only op log shares backing with the parent (a serialized
// writer only appends past the parent's LogLen).
type Delta struct {
	runs    [2]map[uint32][]bufEntry
	dels    [2]map[uint32][]delRec
	deleted map[storage.EdgeID]struct{}

	// log records every op since the last merge, in commit order, so a
	// merger that folded an older snapshot can rebase the suffix committed
	// during its build onto the new base (RebaseDelta).
	log    []deltaOp
	logLen int

	inserts, deletes int
}

// deltaOp is one logged write (endpoints and values are read back from the
// snapshot graph at rebase time).
type deltaOp struct {
	del bool
	e   storage.EdgeID
}

// delRec marks one base edge deleted from one owner's list, carrying the
// edge's partition codes so prefix-restricted length math stays exact.
type delRec struct {
	eid   uint64
	codes []uint16
}

// NewDelta returns an empty overlay.
func NewDelta() *Delta { return &Delta{} }

// Empty reports whether the overlay carries no pending writes.
func (d *Delta) Empty() bool { return d == nil || (d.inserts == 0 && d.deletes == 0) }

// Pending returns the number of buffered ops (inserts + deletes), the
// quantity merge thresholds are expressed in.
func (d *Delta) Pending() int {
	if d == nil {
		return 0
	}
	return d.inserts + d.deletes
}

// Deletes returns the number of pending edge deletions.
func (d *Delta) Deletes() int {
	if d == nil {
		return 0
	}
	return d.deletes
}

// LogLen returns the length of the op log (the rebase cursor for mergers).
func (d *Delta) LogLen() int {
	if d == nil {
		return 0
	}
	return d.logLen
}

// EdgeDeleted reports whether e has a pending (unmerged) delete. Scans must
// consult this in addition to the graph's own tombstones.
func (d *Delta) EdgeDeleted(e storage.EdgeID) bool {
	if d == nil {
		return false
	}
	_, ok := d.deleted[e]
	return ok
}

// DeletedEdges returns the pending delete set (for mergers folding it into
// a fresh base's tombstones).
func (d *Delta) DeletedEdges() []storage.EdgeID {
	if d == nil || len(d.deleted) == 0 {
		return nil
	}
	out := make([]storage.EdgeID, 0, len(d.deleted))
	for e := range d.deleted {
		out = append(out, e)
	}
	return out
}

// Touches reports whether fetching (dir, owner) requires splicing: the
// owner has pending inserts or deletes in that direction.
func (d *Delta) Touches(dir Direction, owner uint32) bool {
	if d == nil {
		return false
	}
	return len(d.runs[dir][owner]) > 0 || len(d.dels[dir][owner]) > 0
}

// SpliceLen returns the length Splice would produce for (dir, owner)
// restricted to the codes prefix, given the base list's length — the
// count-pushdown fold path needs lengths without materializing entries.
func (d *Delta) SpliceLen(dir Direction, owner uint32, codes []uint16, baseLen int) int {
	n := baseLen
	for _, dr := range d.dels[dir][owner] {
		if prefixMatches(dr.codes, codes) {
			n--
		}
	}
	for i := range d.runs[dir][owner] {
		if prefixMatches(d.runs[dir][owner][i].codes, codes) {
			n++
		}
	}
	return n
}

// nextRunMatch advances i to the next run entry whose codes start with the
// prefix (len(run) when none remains).
func nextRunMatch(run []bufEntry, i int, prefix []uint16) int {
	for i < len(run) && !prefixMatches(run[i].codes, prefix) {
		i++
	}
	return i
}

// delContains reports whether the (eid-sorted) delete records cover eid.
func delContains(dels []delRec, eid uint64) bool {
	lo, hi := 0, len(dels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dels[mid].eid < eid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(dels) && dels[lo].eid == eid
}

// Splice merges the overlay for (dir, owner), restricted to the codes
// prefix, into the base list fetched from the frozen primary p: pending
// inserts are interleaved in full index order (bucket codes, sort-key
// ordinals, neighbour ID, edge ID — the order the base CSR itself is built
// in) and pending deletes are dropped. The merged entries are written into
// the caller's reusable nbrs/eids buffers, which are grown only when
// capacity is insufficient, so a warm caller splices with zero heap
// allocations.
func (d *Delta) Splice(p *Primary, dir Direction, owner uint32, codes []uint16, base AdjList, nbrs []uint32, eids []uint64) ([]uint32, []uint64) {
	run := d.runs[dir][owner]
	dels := d.dels[dir][owner]
	n := base.Len()
	if cap(nbrs) < n+len(run) {
		nbrs = make([]uint32, 0, n+len(run))
	}
	if cap(eids) < n+len(run) {
		eids = make([]uint64, 0, n+len(run))
	}
	nbrs, eids = nbrs[:0], eids[:0]
	ri := nextRunMatch(run, 0, codes)
	sorts := bindSorts(p.g, p.cfg.Sorts)
	var cb [8]uint16
	for i := 0; i < n; i++ {
		nb, e := base.Get(i)
		if len(dels) > 0 && delContains(dels, uint64(e)) {
			continue
		}
		if ri < len(run) {
			cur := bufEntry{
				nbr:   uint32(nb),
				eid:   uint64(e),
				sort:  sorts.ordinals(e, nb),
				codes: codesFor(p.levels, e, nb, cb[:0]),
			}
			for ri < len(run) && bufLess(run[ri], cur) {
				nbrs = append(nbrs, run[ri].nbr)
				eids = append(eids, run[ri].eid)
				ri = nextRunMatch(run, ri+1, codes)
			}
		}
		nbrs = append(nbrs, uint32(nb))
		eids = append(eids, uint64(e))
	}
	for ri < len(run) {
		nbrs = append(nbrs, run[ri].nbr)
		eids = append(eids, run[ri].eid)
		ri = nextRunMatch(run, ri+1, codes)
	}
	return nbrs, eids
}

// DeltaBuilder derives a successor Delta from a published parent during one
// commit. Maps are cloned lazily on first mutation and each owner slice is
// copied before its first mutation, so the parent stays immutable and the
// common insert-only commit never touches the delete structures; the op log
// shares backing with the parent under the single-serialized-writer
// discipline. Builders are not safe for concurrent use.
type DeltaBuilder struct {
	p *Primary       // frozen base (partition levels, sort keys, edge bound)
	g *storage.Graph // the batch's graph clone (values of fresh entities)
	d *Delta

	// ownedRunMaps/ownedDelMaps/ownedDeleted track which maps this builder
	// has already detached from the parent; ownedRuns/ownedDels track
	// (dir, owner) slices already copied, so repeated writes to one owner
	// mutate in place.
	ownedRunMaps [2]bool
	ownedDelMaps [2]bool
	ownedDeleted bool
	ownedRuns    [2]map[uint32]bool
	ownedDels    [2]map[uint32]bool

	impossible bool

	// ic is rebound to the batch graph for every op (see insertCoder).
	ic insertCoder
}

// NewDeltaBuilder starts a commit's overlay from parent (nil for empty)
// against the frozen base primary p and the batch's graph clone g.
func NewDeltaBuilder(parent *Delta, p *Primary, g *storage.Graph) *DeltaBuilder {
	if parent == nil {
		parent = NewDelta()
	}
	nd := &Delta{
		runs:    parent.runs,
		dels:    parent.dels,
		deleted: parent.deleted,
		log:     parent.log[:parent.logLen],
		logLen:  parent.logLen,
		inserts: parent.inserts,
		deletes: parent.deletes,
	}
	return &DeltaBuilder{
		p: p, g: g, d: nd,
		ownedRuns: [2]map[uint32]bool{{}, {}},
		ownedDels: [2]map[uint32]bool{{}, {}},
	}
}

// runMap returns the builder's private run map for dir, detaching it from
// the parent on first use.
func (b *DeltaBuilder) runMap(dir Direction) map[uint32][]bufEntry {
	if !b.ownedRunMaps[dir] {
		m := make(map[uint32][]bufEntry, len(b.d.runs[dir])+1)
		for o, r := range b.d.runs[dir] {
			m[o] = r
		}
		b.d.runs[dir] = m
		b.ownedRunMaps[dir] = true
	}
	return b.d.runs[dir]
}

// delMap is runMap for the delete-record maps.
func (b *DeltaBuilder) delMap(dir Direction) map[uint32][]delRec {
	if !b.ownedDelMaps[dir] {
		m := make(map[uint32][]delRec, len(b.d.dels[dir])+1)
		for o, r := range b.d.dels[dir] {
			m[o] = r
		}
		b.d.dels[dir] = m
		b.ownedDelMaps[dir] = true
	}
	return b.d.dels[dir]
}

// deletedSet returns the builder's private pending-delete set, detaching it
// from the parent on first use.
func (b *DeltaBuilder) deletedSet() map[storage.EdgeID]struct{} {
	if !b.ownedDeleted {
		m := make(map[storage.EdgeID]struct{}, len(b.d.deleted)+1)
		for e := range b.d.deleted {
			m[e] = struct{}{}
		}
		b.d.deleted = m
		b.ownedDeleted = true
	}
	return b.d.deleted
}

// Impossible reports whether some op could not be expressed as an overlay
// entry (an edge carried a categorical value unknown to the base's
// partition levels). The commit must then fold everything into a fresh
// base instead of publishing this builder's delta.
func (b *DeltaBuilder) Impossible() bool { return b.impossible }

// Insert buffers a freshly added edge (already present in the builder's
// graph clone) in both directions.
func (b *DeltaBuilder) Insert(e storage.EdgeID) {
	src, dst := b.g.Src(e), b.g.Dst(e)
	b.ic.bind(b.g, b.p.levels)
	fwCodes, ok1 := b.ic.codes(e, dst)
	bwCodes, ok2 := b.ic.codes(e, src)
	fwSort, ok3 := b.baseSortOrdinals(e, dst)
	bwSort, ok4 := b.baseSortOrdinals(e, src)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		b.impossible = true
		return
	}
	b.insertRun(FW, uint32(src), bufEntry{
		nbr: uint32(dst), eid: uint64(e), sort: fwSort, codes: fwCodes,
	})
	b.insertRun(BW, uint32(dst), bufEntry{
		nbr: uint32(src), eid: uint64(e), sort: bwSort, codes: bwCodes,
	})
	b.d.inserts++
	b.d.log = append(b.d.log, deltaOp{e: e})
}

// baseSortOrdinals computes the sort-key ordinals of a delta entry in the
// FROZEN BASE's ordinal space — the space base entries are compared in
// during Splice and the space the base CSR was built in. Reading the batch
// value and mapping it through OrdinalOfValue(base graph) matters for
// string sort keys: the batch clone's dictionary may have interned new
// strings, which shifts every lexicographic rank in the clone's space. ok
// is false when a value has no base ordinal (e.g. a string the base has
// never seen), in which case the op cannot be buffered and the commit must
// fold to a fresh base.
func (b *DeltaBuilder) baseSortOrdinals(e storage.EdgeID, nbr storage.VertexID) ([2]uint64, bool) {
	var out [2]uint64
	for i, k := range b.p.cfg.Sorts {
		ord, ok := b.baseSortOrdinal(k, e, nbr)
		if !ok {
			return out, false
		}
		out[i] = ord
	}
	return out, true
}

func (b *DeltaBuilder) baseSortOrdinal(k SortKey, e storage.EdgeID, nbr storage.VertexID) (uint64, bool) {
	switch {
	case k.Prop == pred.PropID:
		if k.Var == pred.VarNbr {
			return uint64(nbr), true
		}
		return uint64(e), true
	case k.Prop == pred.PropLabel:
		// Label ids are dense append-only codes ordered by id (not rank),
		// so clone-interned labels extend the space without shifting it.
		if k.Var == pred.VarNbr {
			return uint64(b.g.VertexLabel(nbr)), true
		}
		return uint64(b.g.EdgeLabel(e)), true
	}
	var v storage.Value
	if k.Var == pred.VarNbr {
		v = b.g.VertexProp(nbr, k.Prop)
	} else {
		v = b.g.EdgeProp(e, k.Prop)
	}
	if v.IsNull() {
		return ^uint64(0), true // NULLs sort last in every space
	}
	return OrdinalOfValue(b.p.g, k, v)
}

func (b *DeltaBuilder) insertRun(dir Direction, owner uint32, be bufEntry) {
	m := b.runMap(dir)
	run := m[owner]
	if !b.ownedRuns[dir][owner] {
		run = append(make([]bufEntry, 0, len(run)+4), run...)
		b.ownedRuns[dir][owner] = true
	}
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bufLess(run[mid], be) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	run = append(run, bufEntry{})
	copy(run[lo+1:], run[lo:])
	run[lo] = be
	m[owner] = run
}

// Delete buffers an edge deletion. Deleting an edge that itself postdates
// the base (it lives in a pending insert run) removes the run entry;
// deleting a base edge records a per-owner delete. Already-deleted edges
// are a no-op, matching Graph.DeleteEdge.
func (b *DeltaBuilder) Delete(e storage.EdgeID) {
	if b.g.EdgeDeleted(e) {
		return
	}
	if _, dup := b.d.deleted[e]; dup {
		return
	}
	src, dst := b.g.Src(e), b.g.Dst(e)
	if e >= b.p.EdgeBound() {
		// The edge was inserted after the base was built: unbuffer it.
		b.removeRun(FW, uint32(src), uint64(e))
		b.removeRun(BW, uint32(dst), uint64(e))
	} else {
		b.ic.bind(b.g, b.p.levels)
		fwCodes, _ := b.ic.codes(e, dst)
		bwCodes, _ := b.ic.codes(e, src)
		b.insertDel(FW, uint32(src), delRec{eid: uint64(e), codes: fwCodes})
		b.insertDel(BW, uint32(dst), delRec{eid: uint64(e), codes: bwCodes})
	}
	b.deletedSet()[e] = struct{}{}
	b.d.deletes++
	b.d.log = append(b.d.log, deltaOp{del: true, e: e})
}

func (b *DeltaBuilder) removeRun(dir Direction, owner uint32, eid uint64) {
	run := b.d.runs[dir][owner]
	idx := -1
	for i := range run {
		if run[i].eid == eid {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	m := b.runMap(dir)
	if !b.ownedRuns[dir][owner] {
		run = append(make([]bufEntry, 0, len(run)), run...)
		b.ownedRuns[dir][owner] = true
	}
	run = append(run[:idx], run[idx+1:]...)
	if len(run) == 0 {
		delete(m, owner)
		delete(b.ownedRuns[dir], owner)
		return
	}
	m[owner] = run
}

func (b *DeltaBuilder) insertDel(dir Direction, owner uint32, dr delRec) {
	m := b.delMap(dir)
	dels := m[owner]
	if !b.ownedDels[dir][owner] {
		dels = append(make([]delRec, 0, len(dels)+4), dels...)
		b.ownedDels[dir][owner] = true
	}
	lo, hi := 0, len(dels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dels[mid].eid < dr.eid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	dels = append(dels, delRec{})
	copy(dels[lo+1:], dels[lo:])
	dels[lo] = dr
	m[owner] = dels
}

// Freeze seals and returns the built Delta. The builder must not be used
// afterwards.
func (b *DeltaBuilder) Freeze() *Delta {
	b.d.logLen = len(b.d.log)
	return b.d
}

// RebaseDelta rebuilds the overlay for a freshly merged base by replaying
// the ops parent committed after position `from` of its log (the merged
// snapshot's LogLen) against the new primary p and graph g. ok is false
// when some replayed edge carries a categorical value unknown even to the
// new base's levels — the caller must then rebuild from the graph instead.
func RebaseDelta(parent *Delta, from int, p *Primary, g *storage.Graph) (*Delta, bool) {
	b := NewDeltaBuilder(nil, p, g)
	for _, op := range parent.log[from:parent.logLen] {
		if op.del {
			b.Delete(op.e)
		} else {
			b.Insert(op.e)
		}
	}
	if b.Impossible() {
		return nil, false
	}
	return b.Freeze(), true
}
