package exec

import (
	"fmt"
	"strings"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// Op is a physical operator. run processes the current binding and calls
// next for every produced extension; returning false aborts the pipeline.
// sc is the operator's slot in the worker's Scratch arena: all per-tuple
// buffers live there, never on the heap, and Op values themselves carry no
// mutable state so one Plan can run in many workers at once. bind runs once
// per execution, before the first run: it resolves the op's predicate
// terms and sort keys against the execution's graph into sc, so run reads
// columns directly instead of looking properties up by name per tuple.
type Op interface {
	bind(g *storage.Graph, sc *opScratch)
	run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool
	explain() string
}

// ScanVertexOp binds a vertex slot by scanning the vertex table (or jumping
// straight to an exact ID). Terms are vertex-local predicates evaluated
// during the scan.
type ScanVertexOp struct {
	Slot     int
	HasLabel bool
	Label    storage.LabelID
	ExactID  *storage.VertexID
	Terms    []CompiledTerm
}

func (o *ScanVertexOp) bind(g *storage.Graph, sc *opScratch) {
	sc.terms = bindTerms(sc.terms, g, o.Terms)
}

func (o *ScanVertexOp) run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	return o.runRange(rt, sc, b, 0, o.tableSize(rt), next)
}

// tableSize reports the number of scan positions (partitionableOp).
func (o *ScanVertexOp) tableSize(rt *Runtime) int {
	if o.ExactID != nil {
		return 1
	}
	if o.HasLabel {
		return len(rt.G.VerticesWithLabel(o.Label))
	}
	return rt.G.NumVertices()
}

// runRange scans positions [lo, hi) of the vertex table — or, when a label
// is fixed, of the per-label vertex list, so unlabeled vertices are never
// touched (partitionableOp).
func (o *ScanVertexOp) runRange(rt *Runtime, sc *opScratch, b *Binding, lo, hi int, next func() bool) bool {
	tryOne := func(v storage.VertexID) bool {
		// Shard ownership filters before predicates and binding: a skipped
		// entry charges no metrics, so per-shard counters sum bit-identically
		// to an unsharded run (see ShardSpec).
		if rt.Shard.active() && !rt.Shard.ownsVertex(v) {
			return true
		}
		b.V[o.Slot] = v
		if !evalAll(rt, b, sc.terms) {
			return true
		}
		return next()
	}
	if o.ExactID != nil {
		if lo > 0 || hi < 1 {
			return true
		}
		if int(*o.ExactID) >= rt.G.NumVertices() {
			return true
		}
		if o.HasLabel && rt.G.VertexLabel(*o.ExactID) != o.Label {
			return true
		}
		return tryOne(*o.ExactID)
	}
	if o.HasLabel {
		for _, v := range rt.G.VerticesWithLabel(o.Label)[lo:hi] {
			if !tryOne(v) {
				return false
			}
		}
		return true
	}
	for v := lo; v < hi; v++ {
		if !tryOne(storage.VertexID(v)) {
			return false
		}
	}
	return true
}

func (o *ScanVertexOp) explain() string {
	s := fmt.Sprintf("SCAN v%d", o.Slot)
	if o.ExactID != nil {
		s += fmt.Sprintf(" id=%d", *o.ExactID)
	}
	if o.HasLabel {
		s += fmt.Sprintf(" label=%d", o.Label)
	}
	for _, t := range o.Terms {
		s += " " + t.String()
	}
	return s
}

// ScanEdgeOp binds an edge slot (and both endpoint vertex slots) by
// scanning the edge table or jumping to an exact edge ID — the entry point
// for plans anchored at an edge, like Example 7's r1.eID = t13.
type ScanEdgeOp struct {
	EdgeSlot, SrcSlot, DstSlot int
	HasLabel                   bool
	Label                      storage.LabelID
	ExactID                    *storage.EdgeID
	Terms                      []CompiledTerm
}

func (o *ScanEdgeOp) bind(g *storage.Graph, sc *opScratch) {
	sc.terms = bindTerms(sc.terms, g, o.Terms)
}

func (o *ScanEdgeOp) run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	return o.runRange(rt, sc, b, 0, o.tableSize(rt), next)
}

// tableSize reports the number of scan positions (partitionableOp).
func (o *ScanEdgeOp) tableSize(rt *Runtime) int {
	if o.ExactID != nil {
		return 1
	}
	return rt.G.NumEdges()
}

// runRange scans edge slots [lo, hi) of the edge table (partitionableOp).
func (o *ScanEdgeOp) runRange(rt *Runtime, sc *opScratch, b *Binding, lo, hi int, next func() bool) bool {
	tryOne := func(e storage.EdgeID) bool {
		if rt.G.EdgeDeleted(e) {
			return true
		}
		if rt.Delta != nil && rt.Delta.EdgeDeleted(e) {
			return true
		}
		if o.HasLabel && rt.G.EdgeLabel(e) != o.Label {
			return true
		}
		// Edge-rooted plans partition shard ownership on the source vertex;
		// the filter runs after the tombstone/label skips (which charge no
		// metrics either) and before predicates and binding.
		if rt.Shard.active() && !rt.Shard.ownsVertex(rt.G.Src(e)) {
			return true
		}
		b.E[o.EdgeSlot] = e
		b.V[o.SrcSlot] = rt.G.Src(e)
		b.V[o.DstSlot] = rt.G.Dst(e)
		if !evalAll(rt, b, sc.terms) {
			return true
		}
		return next()
	}
	if o.ExactID != nil {
		if lo > 0 || hi < 1 {
			return true
		}
		if int(*o.ExactID) >= rt.G.NumEdges() {
			return true
		}
		return tryOne(*o.ExactID)
	}
	for e := lo; e < hi; e++ {
		if !tryOne(storage.EdgeID(e)) {
			return false
		}
	}
	return true
}

func (o *ScanEdgeOp) explain() string {
	s := fmt.Sprintf("SCAN-EDGE e%d (v%d->v%d)", o.EdgeSlot, o.SrcSlot, o.DstSlot)
	if o.ExactID != nil {
		s += fmt.Sprintf(" id=%d", *o.ExactID)
	}
	return s
}

// ExtendIntersectOp is the system's primary join operator (E/I): it
// intersects z >= 1 neighbour-ID-sorted adjacency lists and extends the
// partial match by one query vertex, binding each list's matched edge. With
// z = 1 no intersection is performed — a plain EXTEND.
//
// Every fetched list is block-decoded once into the scratch slot's flat
// slices (zero-copy for direct lists); the intersection then gallops over
// raw []uint32 neighbour arrays with no per-element representation branch.
type ExtendIntersectOp struct {
	Lists      []ListRef
	TargetSlot int
}

func (o *ExtendIntersectOp) bind(g *storage.Graph, sc *opScratch) { sc.bindSegments(g, o.Lists) }

func (o *ExtendIntersectOp) run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	if len(o.Lists) == 1 && o.Lists[0].Seg == nil {
		// Plain EXTEND: order within the list is irrelevant, a prefix-coded
		// multi-bucket range is fine.
		r := &o.Lists[0]
		sc.ensureLists(1)
		sc.decode(0, r.fetchWith(rt, sc, 0, b, r.Codes))
		f := sc.lists[0]
		for i, nbr := range f.nbrs {
			b.V[o.TargetSlot] = storage.VertexID(nbr)
			b.E[r.EdgeSlot] = storage.EdgeID(f.eids[i])
			if !next() {
				return false
			}
		}
		return true
	}
	// Sorted access (segments or intersections) works bucket-by-bucket:
	// process each combination of the lists' innermost-bucket choices.
	z := len(o.Lists)
	sc.initCombo(o.Lists)
	sc.ensureLists(z)
	for {
		empty := false
		for i := range o.Lists {
			l := o.Lists[i].fetchWith(rt, sc, i, b, sc.codes[i])
			if l.Len() == 0 {
				empty = true
				break
			}
			sc.decode(i, l)
		}
		if !empty {
			if z == 1 {
				r := &o.Lists[0]
				f := sc.lists[0]
				for i, nbr := range f.nbrs {
					b.V[o.TargetSlot] = storage.VertexID(nbr)
					b.E[r.EdgeSlot] = storage.EdgeID(f.eids[i])
					if !next() {
						return false
					}
				}
			} else if !o.intersect(sc, b, next) {
				return false
			}
		}
		if !sc.advanceCombo() {
			return true
		}
	}
}

// intersect performs a z-way sorted intersection over the block-decoded
// lists with duplicate-aware runs (parallel edges produce one output per
// edge combination).
func (o *ExtendIntersectOp) intersect(sc *opScratch, b *Binding, next func() bool) bool {
	z := len(sc.lists)
	pos, runEnd := sc.pos, sc.runEnd
	for i := range pos {
		pos[i] = 0
	}
	for {
		// Propose the maximum current neighbour.
		var target uint32
		for i := 0; i < z; i++ {
			nbrs := sc.lists[i].nbrs
			if pos[i] >= len(nbrs) {
				return true
			}
			if n := nbrs[pos[i]]; n > target {
				target = n
			}
		}
		// Advance every list to >= target; restart when overshooting.
		agreed := true
		for i := 0; i < z; i++ {
			nbrs := sc.lists[i].nbrs
			pos[i] = gallopNbrs(nbrs, pos[i], target)
			if pos[i] >= len(nbrs) {
				return true
			}
			if nbrs[pos[i]] != target {
				agreed = false
			}
		}
		if !agreed {
			continue
		}
		// Locate each list's duplicate run of the matched neighbour by
		// galloping, so long parallel-edge runs are skipped in one step.
		for i := 0; i < z; i++ {
			runEnd[i] = runEndOf(sc.lists[i].nbrs, pos[i], target)
		}
		b.V[o.TargetSlot] = storage.VertexID(target)
		if !o.emitRuns(sc, b, 0, next) {
			return false
		}
		for i := 0; i < z; i++ {
			pos[i] = runEnd[i]
		}
	}
}

// emitRuns emits the cross product of edge choices across lists.
func (o *ExtendIntersectOp) emitRuns(sc *opScratch, b *Binding, i int, next func() bool) bool {
	if i == len(sc.lists) {
		return next()
	}
	eids := sc.lists[i].eids
	slot := o.Lists[i].EdgeSlot
	for k := sc.pos[i]; k < sc.runEnd[i]; k++ {
		b.E[slot] = storage.EdgeID(eids[k])
		if !o.emitRuns(sc, b, i+1, next) {
			return false
		}
	}
	return true
}

func (o *ExtendIntersectOp) explain() string {
	parts := make([]string, len(o.Lists))
	for i, r := range o.Lists {
		parts[i] = r.String()
	}
	name := "EXTEND"
	if len(o.Lists) > 1 {
		name = "E/I"
	}
	return fmt.Sprintf("%s v%d <- %s", name, o.TargetSlot, strings.Join(parts, " ∩ "))
}

// MEGroup is one extension target of a MULTI-EXTEND: the lists whose
// neighbour must agree for this target.
type MEGroup struct {
	TargetSlot int
	Lists      []ListRef
}

// MultiExtendOp intersects lists that are sorted on a property other than
// neighbour IDs and extends the partial match by one or more query vertices
// at once (Section IV-A). All lists across all groups must share the sort
// key; matches are combinations with equal sort-key value in every list,
// e.g. "accounts in the same city" joins.
type MultiExtendOp struct {
	Key    index.SortKey
	Groups []MEGroup
}

type meCursor struct {
	list index.AdjList
	ref  ListRef
	pos  int
	end  int // run end for the current ordinal
}

func (o *MultiExtendOp) bind(g *storage.Graph, sc *opScratch) {
	sc.initME(o)
	sc.meKey = index.BindSortKey(g, o.Key)
	sc.bindSegments(g, sc.refs)
}

func (o *MultiExtendOp) run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	sc.initCombo(sc.refs)
	for {
		ok := true
		for i := range sc.refs {
			l := sc.refs[i].fetchWith(rt, sc, i, b, sc.codes[i])
			if l.Len() == 0 {
				ok = false
				break
			}
			sc.cursors[i] = meCursor{list: l, ref: sc.refs[i]}
		}
		if ok && !o.merge(rt, sc, b, next) {
			return false
		}
		if !sc.advanceCombo() {
			return true
		}
	}
}

// meOrdinal computes the sort-key ordinal of cursor entry i under the
// op's bound sort key.
func meOrdinal(key *index.BoundSortKey, c *meCursor, i int) uint64 {
	nbr, e := c.list.Get(i)
	return key.Ordinal(e, nbr)
}

func (o *MultiExtendOp) merge(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	key := &sc.meKey
	cursors := sc.cursors
	nullOrd := ^uint64(0)
	for {
		// Find the max current ordinal.
		var target uint64
		for i := range cursors {
			c := &cursors[i]
			if c.pos >= c.list.Len() {
				return true
			}
			if ord := meOrdinal(key, c, c.pos); ord > target {
				target = ord
			}
		}
		if target == nullOrd {
			// NULL sort values never join (null city matches nothing).
			return true
		}
		agreed := true
		for i := range cursors {
			c := &cursors[i]
			for c.pos < c.list.Len() && meOrdinal(key, c, c.pos) < target {
				c.pos++
			}
			if c.pos >= c.list.Len() {
				return true
			}
			if meOrdinal(key, c, c.pos) != target {
				agreed = false
			}
		}
		if !agreed {
			continue
		}
		for i := range cursors {
			c := &cursors[i]
			j := c.pos
			for j < c.list.Len() && meOrdinal(key, c, j) == target {
				j++
			}
			c.end = j
		}
		if !o.emitGroups(rt, sc, b, 0, next) {
			return false
		}
		for i := range cursors {
			cursors[i].pos = cursors[i].end
		}
	}
}

// emitGroups walks groups in order, intersecting each group's runs on the
// neighbour and emitting the cross product across groups.
func (o *MultiExtendOp) emitGroups(rt *Runtime, sc *opScratch, b *Binding, gi int, next func() bool) bool {
	if gi == len(o.Groups) {
		return next()
	}
	gs := &sc.groups[gi]
	target := o.Groups[gi].TargetSlot
	if len(gs.cur) == 1 {
		c := &sc.cursors[gs.cur[0]]
		for k := c.pos; k < c.end; k++ {
			nbr, e := c.list.Get(k)
			b.V[target] = nbr
			b.E[c.ref.EdgeSlot] = e
			if !o.emitGroups(rt, sc, b, gi+1, next) {
				return false
			}
		}
		return true
	}
	// Multiple lists for one target: the runs are sorted by neighbour
	// within the equal-ordinal region; intersect them.
	idx, ends := gs.idx, gs.ends
	for i, ci := range gs.cur {
		idx[i] = sc.cursors[ci].pos
	}
	for {
		var nbrTarget storage.VertexID
		for i, ci := range gs.cur {
			c := &sc.cursors[ci]
			if idx[i] >= c.end {
				return true
			}
			if n := c.list.Nbr(idx[i]); n > nbrTarget {
				nbrTarget = n
			}
		}
		agreed := true
		for i, ci := range gs.cur {
			c := &sc.cursors[ci]
			for idx[i] < c.end && c.list.Nbr(idx[i]) < nbrTarget {
				idx[i]++
			}
			if idx[i] >= c.end {
				return true
			}
			if c.list.Nbr(idx[i]) != nbrTarget {
				agreed = false
			}
		}
		if !agreed {
			continue
		}
		for i, ci := range gs.cur {
			c := &sc.cursors[ci]
			j := idx[i]
			for j < c.end && c.list.Nbr(j) == nbrTarget {
				j++
			}
			ends[i] = j
		}
		b.V[target] = nbrTarget
		if !o.emitGroupEdges(rt, sc, b, gi, 0, next) {
			return false
		}
		for i := range gs.cur {
			idx[i] = ends[i]
		}
	}
}

// emitGroupEdges emits the cross product of edge choices inside group gi,
// then recurses into the next group.
func (o *MultiExtendOp) emitGroupEdges(rt *Runtime, sc *opScratch, b *Binding, gi, i int, next func() bool) bool {
	gs := &sc.groups[gi]
	if i == len(gs.cur) {
		return o.emitGroups(rt, sc, b, gi+1, next)
	}
	c := &sc.cursors[gs.cur[i]]
	for k := gs.idx[i]; k < gs.ends[i]; k++ {
		b.E[c.ref.EdgeSlot] = c.list.Edge(k)
		if !o.emitGroupEdges(rt, sc, b, gi, i+1, next) {
			return false
		}
	}
	return true
}

func (o *MultiExtendOp) explain() string {
	var parts []string
	for _, g := range o.Groups {
		var ls []string
		for _, r := range g.Lists {
			ls = append(ls, r.String())
		}
		parts = append(parts, fmt.Sprintf("v%d<-%s", g.TargetSlot, strings.Join(ls, "∩")))
	}
	return fmt.Sprintf("MULTI-EXTEND on %s: %s", o.Key, strings.Join(parts, " ⋈ "))
}

// FilterOp evaluates residual predicates that the chosen indexes did not
// already guarantee.
type FilterOp struct {
	Terms []CompiledTerm
}

func (o *FilterOp) bind(g *storage.Graph, sc *opScratch) { sc.terms = bindTerms(sc.terms, g, o.Terms) }

func (o *FilterOp) run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	if !evalAll(rt, b, sc.terms) {
		return true
	}
	return next()
}

func (o *FilterOp) explain() string {
	parts := make([]string, len(o.Terms))
	for i, t := range o.Terms {
		parts[i] = t.String()
	}
	return "FILTER " + strings.Join(parts, " AND ")
}
