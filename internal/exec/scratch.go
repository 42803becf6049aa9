package exec

import (
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// Scratch is a per-worker arena of reusable operator buffers. Every slice a
// physical operator needs per input tuple (decoded adjacency lists, cursor
// positions, run boundaries, bucket-combination state) lives here, in one
// slot per plan operator, so the steady-state tuple loop performs no heap
// allocations. Op values themselves stay stateless and shareable: the same
// Plan can run in many workers at once, each worker owning its Runtime and
// therefore its Scratch.
type Scratch struct {
	ops []opScratch
}

// reset sizes the arena for a plan with n operators and clears any state
// cached from a previously executed plan (slot i is only valid for the op
// that sits at position i of the current plan).
func (s *Scratch) reset(n int) {
	if cap(s.ops) < n {
		s.ops = make([]opScratch, n)
	}
	s.ops = s.ops[:n]
	clear(s.ops)
}

// op returns operator i's scratch slot.
func (s *Scratch) op(i int) *opScratch { return &s.ops[i] }

// flatList is a block-decoded adjacency list: plain parallel slices with no
// per-element representation branch, the shape the intersection loops run
// over. For direct lists the slices alias index storage (zero copy); for
// offset lists they alias the slot's decode buffers.
type flatList struct {
	nbrs []uint32
	eids []uint64
}

// decodeBuf is the owned backing storage offset lists are decoded into. It
// is kept separate from the flatList views so a zero-copy direct list never
// replaces (and never aliases) the reusable buffers.
type decodeBuf struct {
	nbrs []uint32
	eids []uint64
}

// opScratch holds one operator's reusable buffers. All slices are sized on
// first use and only grow; the zero value is ready to use.
type opScratch struct {
	// Bucket-combination iterator state (initCombo/advanceCombo): per list,
	// the expanded innermost-bucket alternatives, the odometer position, and
	// the currently selected codes.
	choices  [][][]uint16
	comboIdx []int
	codes    [][]uint16
	oneRef   [1]ListRef

	// E/I state: decoded lists, their decode buffers, and the intersection
	// cursors (current position and duplicate-run end per list).
	lists  []flatList
	bufs   []decodeBuf
	pos    []int
	runEnd []int

	// spliceBufs back delta-overlay splices, one per list position of the
	// op, so every concurrently live fetch of the op has its own merged
	// copy. Kept separate from bufs: a spliced list may later be "decoded"
	// zero-copy (it is direct), and the decode buffers must never alias it.
	spliceBufs []decodeBuf

	// MULTI-EXTEND state, computed once per (worker, op slot): the flattened
	// list refs across groups, each ref's group, the merge cursors, and
	// per-group emit state.
	refs     []ListRef
	refGroup []int
	cursors  []meCursor
	groups   []meGroupScratch
	meReady  bool

	// Per-execution bindings (Op.bind): the op's predicate terms, the
	// MULTI-EXTEND sort key, and the sorted segment of each list position
	// (only positions whose ListRef has a Seg are set). Rebound into the
	// same backing arrays on every execution.
	terms []boundTerm
	meKey index.BoundSortKey
	segs  []boundSeg
}

// bindSegments binds the sorted segment of every list position of refs
// that carries one.
func (sc *opScratch) bindSegments(g *storage.Graph, refs []ListRef) {
	for i := range refs {
		seg := refs[i].Seg
		if seg == nil {
			continue
		}
		for len(sc.segs) <= i {
			sc.segs = append(sc.segs, boundSeg{})
		}
		bs := &sc.segs[i]
		bs.key = index.BindSortKey(g, seg.Key)
		if seg.DynEq != nil {
			bs.dyn = seg.DynEq.bind(g)
			bs.dynSlot = seg.DynEq.slot()
		}
	}
}

// meGroupScratch is the per-group emit state of a MULTI-EXTEND: the cursor
// indexes belonging to the group plus intersection positions and run ends
// over the group's equal-ordinal region.
type meGroupScratch struct {
	cur  []int
	idx  []int
	ends []int
}

// initCombo prepares iteration over the cartesian product of each list's
// innermost-bucket choices. codes[i] always holds list i's current bucket
// codes; advanceCombo steps the odometer. A list with no Expand set
// contributes its single Codes prefix.
func (sc *opScratch) initCombo(lists []ListRef) {
	z := len(lists)
	if cap(sc.choices) < z {
		sc.choices = make([][][]uint16, z)
		sc.comboIdx = make([]int, z)
		sc.codes = make([][]uint16, z)
	}
	sc.choices = sc.choices[:z]
	sc.comboIdx = sc.comboIdx[:z]
	sc.codes = sc.codes[:z]
	for i := range lists {
		sc.choices[i] = lists[i].Expand // empty means the single Codes choice
		sc.comboIdx[i] = 0
		if len(sc.choices[i]) > 0 {
			sc.codes[i] = sc.choices[i][0]
		} else {
			sc.codes[i] = lists[i].Codes
		}
	}
}

// advanceCombo moves to the next bucket combination, returning false when
// the product is exhausted.
func (sc *opScratch) advanceCombo() bool {
	for i := len(sc.comboIdx) - 1; i >= 0; i-- {
		n := len(sc.choices[i])
		if n == 0 {
			n = 1 // single implicit choice
		}
		sc.comboIdx[i]++
		if sc.comboIdx[i] < n {
			sc.codes[i] = sc.choices[i][sc.comboIdx[i]]
			return true
		}
		sc.comboIdx[i] = 0
		if len(sc.choices[i]) > 0 {
			sc.codes[i] = sc.choices[i][0]
		}
	}
	return false
}

// ensureLists sizes the E/I buffers for z lists, preserving decode buffers
// already grown.
func (sc *opScratch) ensureLists(z int) {
	for len(sc.bufs) < z {
		sc.bufs = append(sc.bufs, decodeBuf{})
	}
	if cap(sc.lists) < z {
		sc.lists = make([]flatList, z)
		sc.pos = make([]int, z)
		sc.runEnd = make([]int, z)
	}
	sc.lists = sc.lists[:z]
	sc.pos = sc.pos[:z]
	sc.runEnd = sc.runEnd[:z]
}

// spliceBuf returns list position i's reusable delta-splice buffer, growing
// the slot array on first use (steady-state fetches reuse grown buffers).
func (sc *opScratch) spliceBuf(i int) *decodeBuf {
	for len(sc.spliceBufs) <= i {
		sc.spliceBufs = append(sc.spliceBufs, decodeBuf{})
	}
	return &sc.spliceBufs[i]
}

// decode block-decodes list i into flat slices: direct lists are aliased
// with zero copies, offset lists are bulk-unpacked into the slot's reusable
// buffers (index.AdjList.DecodeInto).
func (sc *opScratch) decode(i int, l index.AdjList) {
	if nbrs, eids, ok := l.Direct(); ok {
		sc.lists[i] = flatList{nbrs: nbrs, eids: eids}
		return
	}
	b := &sc.bufs[i]
	b.nbrs, b.eids = l.DecodeInto(b.nbrs, b.eids)
	sc.lists[i] = flatList{nbrs: b.nbrs, eids: b.eids}
}

// initME computes the MULTI-EXTEND shape (flattened refs, group membership,
// per-group emit buffers) the first time the op is bound in this worker.
func (sc *opScratch) initME(o *MultiExtendOp) {
	if sc.meReady {
		return
	}
	sc.refs = sc.refs[:0]
	sc.refGroup = sc.refGroup[:0]
	for gi := range o.Groups {
		for _, r := range o.Groups[gi].Lists {
			sc.refs = append(sc.refs, r)
			sc.refGroup = append(sc.refGroup, gi)
		}
	}
	sc.cursors = make([]meCursor, len(sc.refs))
	sc.groups = make([]meGroupScratch, len(o.Groups))
	for gi := range sc.groups {
		gs := &sc.groups[gi]
		for i, g := range sc.refGroup {
			if g == gi {
				gs.cur = append(gs.cur, i)
			}
		}
		gs.idx = make([]int, len(gs.cur))
		gs.ends = make([]int, len(gs.cur))
	}
	sc.meReady = true
}

// gallopNbrs returns the first position >= from whose value is >= target,
// using exponential probing followed by binary search over a flat slice —
// the branch-free replacement for galloping through the AdjList interface.
func gallopNbrs(nbrs []uint32, from int, target uint32) int {
	n := len(nbrs)
	if from >= n || nbrs[from] >= target {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < n && nbrs[hi] < target {
		lo = hi
		step *= 2
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runEndOf returns the end of the duplicate (parallel-edge) run of target
// that starts at pos, galloping so long runs are skipped in O(log run)
// steps instead of being rescanned linearly.
func runEndOf(nbrs []uint32, pos int, target uint32) int {
	if target == ^uint32(0) {
		// target+1 would wrap; nothing sorts above it, so the run is the
		// remainder of the list.
		return len(nbrs)
	}
	return gallopNbrs(nbrs, pos+1, target+1)
}
