package exec

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
)

// ListKind selects which index a ListRef reads.
type ListKind uint8

const (
	// ListPrimary reads a primary A+ index list.
	ListPrimary ListKind = iota
	// ListVP reads a secondary vertex-partitioned index list.
	ListVP
	// ListEP reads a secondary edge-partitioned index list.
	ListEP
)

// Segment restricts a fetched list to the entries whose first sort-key
// ordinal lies in [Lo, Hi), located by binary search — the paper's
// "binary searches inside lists" access path (e.g. a neighbour-label
// segment under Ds, or a time-prefix under VPt).
//
// DynEq, when set, narrows the segment at runtime to entries whose sort-key
// value equals a bound variable's property (e.g. a2.city = a1.city with a1
// already matched); the static bounds are ignored in that case.
type Segment struct {
	Key    index.SortKey
	Lo, Hi uint64
	HasLo  bool
	HasHi  bool
	DynEq  *Operand
}

// ListRef describes one adjacency list access in a plan: which index, which
// owner (a bound vertex slot for vertex-partitioned lists or a bound edge
// slot for edge-partitioned lists), the resolved partition-bucket prefix,
// an optional sorted segment, and the edge slot the matched edge binds to.
type ListRef struct {
	Kind ListKind
	Dir  index.Direction          // list direction (primary and VP)
	VP   *index.VertexPartitioned // when Kind == ListVP
	EP   *index.EdgePartitioned   // when Kind == ListEP

	OwnerVertexSlot int // owner binding slot (vertex-partitioned kinds)
	OwnerEdgeSlot   int // owner binding slot (edge-partitioned kind)

	Codes    []uint16 // resolved partition codes (prefix)
	Seg      *Segment
	EdgeSlot int // where the matched edge is bound

	// Expand lists the innermost-bucket code completions of Codes. Sorted
	// access (segments and intersections) is only meaningful inside one
	// innermost bucket; when Codes is a strict prefix of the partition
	// levels, the optimizer expands the remaining levels here and the
	// operators process each bucket combination separately.
	Expand [][]uint16
}

// ExpandChoices enumerates every completion of prefix across the remaining
// partition-level cardinalities (including the null buckets).
func ExpandChoices(prefix []uint16, cards []int) [][]uint16 {
	rest := cards[len(prefix):]
	out := [][]uint16{append([]uint16(nil), prefix...)}
	for _, card := range rest {
		var next [][]uint16
		for _, p := range out {
			for c := 0; c < card; c++ {
				next = append(next, append(append([]uint16(nil), p...), uint16(c)))
			}
		}
		out = next
	}
	return out
}

// fetchBase resolves the list from the indexes under the current binding,
// without segment restriction, delta splicing, or i-cost accounting.
func (r ListRef) fetchBase(rt *Runtime, b *Binding, codes []uint16) index.AdjList {
	switch r.Kind {
	case ListPrimary:
		return rt.Store.Primary().List(r.Dir, b.V[r.OwnerVertexSlot], codes)
	case ListVP:
		return r.VP.List(r.Dir, b.V[r.OwnerVertexSlot], codes)
	case ListEP:
		return r.EP.List(b.E[r.OwnerEdgeSlot], codes)
	}
	return index.AdjList{}
}

// fetchSpliced resolves the list under the current binding and splices the
// pinned snapshot's delta overlay into primary fetches (writing the merged
// entries into list position li's reusable scratch buffer, so steady-state
// fetches stay allocation-free), without segment restriction or i-cost
// accounting. Fetching the same (binding, codes) twice yields identical
// entries.
// Secondary-index fetches never need splicing: the planner hides secondary
// indexes while a snapshot carries a non-empty delta.
func (r ListRef) fetchSpliced(rt *Runtime, sc *opScratch, li int, b *Binding, codes []uint16) index.AdjList {
	l := r.fetchBase(rt, b, codes)
	if rt.Delta != nil && r.Kind == ListPrimary {
		owner := uint32(b.V[r.OwnerVertexSlot])
		if rt.Delta.Touches(r.Dir, owner) {
			buf := sc.spliceBuf(li)
			buf.nbrs, buf.eids = rt.Delta.Splice(rt.Store.Primary(), r.Dir, owner, codes, l, buf.nbrs, buf.eids)
			l = index.DirectList(buf.nbrs, buf.eids)
		}
	}
	return l
}

// fetchWith is fetchSpliced plus the sorted-segment restriction and the
// i-cost charge for the resulting length — the normal operator fetch path.
func (r ListRef) fetchWith(rt *Runtime, sc *opScratch, li int, b *Binding, codes []uint16) index.AdjList {
	l := r.fetchSpliced(rt, sc, li, b, codes)
	if r.Seg != nil {
		l = segmentList(b, l, r.Seg, &sc.segs[li])
	}
	rt.ICost += int64(l.Len())
	return l
}

// FetchLen returns the length fetching this list would produce — including
// the delta overlay, but without materializing the merged entries — and
// charges that length to the runtime's i-cost exactly as a fetch would.
// This is the count-pushdown fold path, which multiplies lengths instead of
// enumerating; fold refs never carry segments.
func (r ListRef) FetchLen(rt *Runtime, b *Binding) int {
	n := r.fetchBase(rt, b, r.Codes).Len()
	if rt.Delta != nil && r.Kind == ListPrimary {
		owner := uint32(b.V[r.OwnerVertexSlot])
		if rt.Delta.Touches(r.Dir, owner) {
			n = rt.Delta.SpliceLen(r.Dir, owner, r.Codes, n)
		}
	}
	rt.ICost += int64(n)
	return n
}

// boundSeg is a list's Segment bound to one execution's graph: the sort
// key and, for DynEq segments, the operand and the slot it reads.
type boundSeg struct {
	key     index.BoundSortKey
	dyn     pred.BoundOperand
	dynSlot slotRef
}

// segmentList binary-searches the [Lo, Hi) ordinal range of the first sort
// key inside a list sorted on it, with seg bound as bs. The searches are
// hand-rolled (no sort.Search) so the per-fetch path allocates no closures.
func segmentList(b *Binding, l index.AdjList, seg *Segment, bs *boundSeg) index.AdjList {
	n := l.Len()
	segLo, segHi := seg.Lo, seg.Hi
	hasLo, hasHi := seg.HasLo, seg.HasHi
	if seg.DynEq != nil {
		v := bs.dyn.Value(bs.dynSlot.entity(b))
		ord, ok := bs.key.OrdinalOfValue(v)
		if !ok || v.IsNull() {
			return l.Slice(0, 0)
		}
		segLo, segHi = ord, ord+1
		hasLo, hasHi = true, true
	}
	lo := 0
	if hasLo {
		lo = segSearch(&bs.key, l, n, segLo)
	}
	hi := n
	if hasHi {
		hi = segSearch(&bs.key, l, n, segHi)
	}
	if lo > hi {
		lo = hi
	}
	return l.Slice(lo, hi)
}

// segSearch returns the first position in [0, n) whose sort-key ordinal is
// >= target (n when none is).
func segSearch(key *index.BoundSortKey, l index.AdjList, n int, target uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		nbr, e := l.Get(mid)
		if key.Ordinal(e, nbr) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// String implements fmt.Stringer (used by plan explanations).
func (r ListRef) String() string {
	var base string
	switch r.Kind {
	case ListPrimary:
		base = fmt.Sprintf("primary.%v(v%d)", r.Dir, r.OwnerVertexSlot)
	case ListVP:
		base = fmt.Sprintf("%s.%v(v%d)", r.VP.Name(), r.Dir, r.OwnerVertexSlot)
	case ListEP:
		base = fmt.Sprintf("%s(e%d)", r.EP.Name(), r.OwnerEdgeSlot)
	}
	if len(r.Codes) > 0 {
		base += fmt.Sprintf("/buckets%v", r.Codes)
	}
	if r.Seg != nil {
		base += fmt.Sprintf("/seg(%s)", r.Seg.Key)
	}
	return base
}

// nbrDirection returns which endpoint of a matched edge is the neighbour
// for this list (needed to fill the other endpoint when binding edges).
func (r ListRef) nbrDirection() index.Direction {
	if r.Kind == ListEP {
		return r.EP.EPDir().AdjDirection()
	}
	return r.Dir
}
