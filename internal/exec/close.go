package exec

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/storage"
)

// CloseEdgeOp matches a query edge whose endpoints are both already bound,
// by probing the owner's adjacency list for the target vertex. This is the
// only way binary-join-only systems (the paper's Neo4j/TigerGraph-class
// baselines) can close cycles; WCOJ plans instead fold such edges into
// multiway intersections.
type CloseEdgeOp struct {
	List       ListRef
	TargetSlot int
	// Sorted enables binary search; unsorted lists are scanned linearly,
	// as in systems with unsorted adjacency lists.
	Sorted bool
}

func (o *CloseEdgeOp) bind(g *storage.Graph, sc *opScratch) {
	sc.oneRef[0] = o.List
	sc.bindSegments(g, sc.oneRef[:])
}

func (o *CloseEdgeOp) run(rt *Runtime, sc *opScratch, b *Binding, next func() bool) bool {
	target := b.V[o.TargetSlot]
	sc.oneRef[0] = o.List
	sc.initCombo(sc.oneRef[:])
	for {
		l := o.List.fetchWith(rt, sc, 0, b, sc.codes[0])
		n := l.Len()
		lo, hi := 0, n
		if o.Sorted {
			// Hand-rolled binary search (no sort.Search closure): the list
			// stays in its packed representation — probing is O(log n), so
			// block-decoding it would cost more than the probe saves.
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if l.Nbr(mid) < target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			hi = lo
			for hi < n && l.Nbr(hi) == target {
				hi++
			}
		}
		for i := lo; i < hi || (!o.Sorted && i < n); i++ {
			if l.Nbr(i) != target {
				continue
			}
			b.E[o.List.EdgeSlot] = l.Edge(i)
			if !next() {
				return false
			}
		}
		if !sc.advanceCombo() {
			return true
		}
	}
}

func (o *CloseEdgeOp) explain() string {
	mode := "scan"
	if o.Sorted {
		mode = "bsearch"
	}
	return fmt.Sprintf("CLOSE e%d: v%d in %s (%s)", o.List.EdgeSlot, o.TargetSlot, o.List.String(), mode)
}
