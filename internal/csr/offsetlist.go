package csr

import (
	"slices"
	"sort"
)

// GroupSize is the number of owners that share one offset-list data page and
// hence one fixed offset width (Section IV-B: "groups of 64 vertices").
const GroupSize = 64

// OffsetEntry is one secondary-index record handed to an OffsetBuilder: the
// indexed edge is identified by its offset within the owner's primary list.
type OffsetEntry struct {
	Owner  uint32
	Offset uint32 // position of the edge within the owner's primary range
	Sort   [MaxSortKeys]uint64
	bucket uint32
}

// OffsetLists stores secondary A+ index lists as byte-packed offsets into
// primary ID lists. Offsets are fixed-width per group of 64 owners, using
// the fewest bytes that can represent the longest primary list in the group
// — the paper's space-efficiency technique (Section III-B3).
type OffsetLists struct {
	numOwners int
	cards     []int
	strides   []uint32
	stride    uint32

	// offsets gives bucket boundaries in entry counts; it may be shared
	// with a primary CSR (sharedLevels) and then costs nothing extra.
	offsets      []uint32
	sharedLevels bool

	data        []byte   // packed offset payload
	groupWidth  []uint8  // byte width per owner group
	groupByte   []uint64 // byte position where each group's data begins
	groupEntry  []uint32 // entry index where each group begins
	totalMemory int64
}

// OffsetBuilder accumulates offset entries and produces OffsetLists.
type OffsetBuilder struct {
	numOwners int
	cards     []int
	strides   []uint32
	stride    uint32
	entries   []OffsetEntry
	shared    *CSR // non-nil when partition levels are shared with a primary
}

// NewOffsetBuilder creates a builder with its own partitioning levels.
func NewOffsetBuilder(numOwners int, cards []int) *OffsetBuilder {
	b := &OffsetBuilder{numOwners: numOwners, cards: append([]int(nil), cards...)}
	b.strides, b.stride = computeStrides(cards)
	return b
}

// NewSharedOffsetBuilder creates a builder whose partitioning levels are
// shared with primary: the secondary index stores the same set of edges in
// each bucket (just re-sorted), so the primary's offsets array can be reused
// and is not counted against the secondary's memory (Section III-B3, "With
// no predicates and same partitioning structure").
func NewSharedOffsetBuilder(primary *CSR) *OffsetBuilder {
	return &OffsetBuilder{
		numOwners: primary.numOwners,
		cards:     primary.cards,
		strides:   primary.strides,
		stride:    primary.stride,
		shared:    primary,
	}
}

// Add records one entry. codes must match the builder's level count; for
// shared builders they must be the codes used in the primary index.
func (b *OffsetBuilder) Add(e OffsetEntry, codes []uint16) {
	b.entries = append(b.entries, b.Place(e, codes))
}

// Place returns e assigned to the bucket of codes, ready for AddPlaced. It
// only reads the builder's level strides, so parallel build workers may
// place entries concurrently and keep no per-entry copy of their codes.
func (b *OffsetBuilder) Place(e OffsetEntry, codes []uint16) OffsetEntry {
	var bucket uint32
	for i, c := range codes {
		bucket += uint32(c) * b.strides[i]
	}
	e.bucket = bucket
	return e
}

// AddPlaced records entries returned by Place.
func (b *OffsetBuilder) AddPlaced(es []OffsetEntry) {
	b.entries = append(b.entries, es...)
}

// Reserve grows the entry buffer to hold n more entries without
// reallocating.
func (b *OffsetBuilder) Reserve(n int) {
	b.entries = slices.Grow(b.entries, n)
}

// Len returns the number of entries added so far.
func (b *OffsetBuilder) Len() int { return len(b.entries) }

// Build produces the OffsetLists. ownerListLen must return the length of
// each owner's primary list (used to size the per-group byte width exactly
// as the paper prescribes: the logarithm of the longest list of the 64
// owners, rounded up to whole bytes).
func (b *OffsetBuilder) Build(ownerListLen func(owner uint32) uint32) *OffsetLists {
	o := &OffsetLists{
		numOwners: b.numOwners,
		cards:     b.cards,
		strides:   b.strides,
		stride:    b.stride,
	}
	ents := b.entries
	sort.Slice(ents, func(i, j int) bool { return offsetEntryLess(&ents[i], &ents[j]) })

	if b.shared != nil {
		o.offsets = b.shared.offsets
		o.sharedLevels = true
	} else {
		nBuckets := uint64(b.numOwners) * uint64(b.stride)
		o.offsets = make([]uint32, nBuckets+1)
		for i := range ents {
			g := uint64(ents[i].Owner)*uint64(b.stride) + uint64(ents[i].bucket)
			o.offsets[g+1]++
		}
		for i := uint64(1); i <= nBuckets; i++ {
			o.offsets[i] += o.offsets[i-1]
		}
	}

	// Per-group widths from the longest primary list in each group.
	nGroups := (b.numOwners + GroupSize - 1) / GroupSize
	o.groupWidth = make([]uint8, nGroups)
	o.groupByte = make([]uint64, nGroups+1)
	o.groupEntry = make([]uint32, nGroups+1)
	for g := 0; g < nGroups; g++ {
		var maxLen uint32
		for v := g * GroupSize; v < (g+1)*GroupSize && v < b.numOwners; v++ {
			if l := ownerListLen(uint32(v)); l > maxLen {
				maxLen = l
			}
		}
		o.groupWidth[g] = widthFor(maxLen)
	}
	// Count entries per group, then lay out byte ranges.
	perGroup := make([]uint32, nGroups)
	for i := range ents {
		perGroup[ents[i].Owner/GroupSize]++
	}
	var bytePos uint64
	var entryPos uint32
	for g := 0; g < nGroups; g++ {
		o.groupByte[g] = bytePos
		o.groupEntry[g] = entryPos
		bytePos += uint64(perGroup[g]) * uint64(o.groupWidth[g])
		entryPos += perGroup[g]
	}
	o.groupByte[nGroups] = bytePos
	o.groupEntry[nGroups] = entryPos
	o.data = make([]byte, bytePos)
	for i := range ents {
		o.put(uint32(i), ents[i].Owner/GroupSize, ents[i].Offset)
	}
	b.entries = nil
	return o
}

func offsetEntryLess(a, b *OffsetEntry) bool {
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	if a.bucket != b.bucket {
		return a.bucket < b.bucket
	}
	for k := 0; k < MaxSortKeys; k++ {
		if a.Sort[k] != b.Sort[k] {
			return a.Sort[k] < b.Sort[k]
		}
	}
	return a.Offset < b.Offset
}

// widthFor returns the number of bytes needed to store offsets below n.
func widthFor(n uint32) uint8 {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	case n <= 1<<24:
		return 3
	default:
		return 4
	}
}

func (o *OffsetLists) put(entry, group, val uint32) {
	w := o.groupWidth[group]
	p := o.groupByte[group] + uint64(entry-o.groupEntry[group])*uint64(w)
	for b := uint8(0); b < w; b++ {
		o.data[p+uint64(b)] = byte(val >> (8 * b))
	}
}

// At returns the packed offset at global entry position i for an owner in
// the given group.
func (o *OffsetLists) At(i uint32) uint32 {
	g := o.groupOf(i)
	w := o.groupWidth[g]
	p := o.groupByte[g] + uint64(i-o.groupEntry[g])*uint64(w)
	var val uint32
	for b := uint8(0); b < w; b++ {
		val |= uint32(o.data[p+uint64(b)]) << (8 * b)
	}
	return val
}

func (o *OffsetLists) groupOf(entry uint32) int {
	// Binary search over group entry starts; groups are few and this is
	// outside the per-edge hot loop (ranges are resolved per list).
	lo, hi := 0, len(o.groupEntry)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if o.groupEntry[mid] <= entry {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// List is a decoded offset list: offsets into an owner's primary list range.
type List struct {
	o     *OffsetLists
	group int
	lo    uint32
	n     uint32
}

// NumOwners returns the number of owners covered at build time.
func (o *OffsetLists) NumOwners() int { return o.numOwners }

// BucketList returns the offset list for a fully or partially specified
// bucket under owner (prefix semantics as in CSR.PrefixRange). Owners added
// after the build have empty lists.
func (o *OffsetLists) BucketList(owner uint32, codes []uint16) List {
	if int(owner) >= o.numOwners {
		return List{o: o}
	}
	base := uint64(owner) * uint64(o.stride)
	var bucket, span uint32 = 0, o.stride
	for i, code := range codes {
		bucket += uint32(code) * o.strides[i]
		span = o.strides[i]
	}
	lo := o.offsets[base+uint64(bucket)]
	hi := o.offsets[base+uint64(bucket)+uint64(span)]
	return List{o: o, group: int(owner / GroupSize), lo: lo, n: hi - lo}
}

// OwnerList returns the full offset list of an owner.
func (o *OffsetLists) OwnerList(owner uint32) List {
	if int(owner) >= o.numOwners {
		return List{o: o}
	}
	base := uint64(owner) * uint64(o.stride)
	lo := o.offsets[base]
	hi := o.offsets[base+uint64(o.stride)]
	return List{o: o, group: int(owner / GroupSize), lo: lo, n: hi - lo}
}

// Len returns the number of offsets in the list.
func (l List) Len() int { return int(l.n) }

// Sub returns the sublist [lo, hi).
func (l List) Sub(lo, hi int) List {
	return List{o: l.o, group: l.group, lo: l.lo + uint32(lo), n: uint32(hi - lo)}
}

// At returns the i-th offset in the list.
func (l List) At(i int) uint32 {
	o := l.o
	w := o.groupWidth[l.group]
	p := o.groupByte[l.group] + uint64(l.lo+uint32(i)-o.groupEntry[l.group])*uint64(w)
	var val uint32
	for b := uint8(0); b < w; b++ {
		val |= uint32(o.data[p+uint64(b)]) << (8 * b)
	}
	return val
}

// UnpackInto bulk-decodes every packed offset of the list into dst, which
// must have length >= Len(). The group's byte width is resolved once and
// each width gets its own tight loop, instead of At's per-element group
// lookup and variable-width byte loop — the block-decode fast path the
// executor uses when materializing secondary lists into scratch buffers.
func (l List) UnpackInto(dst []uint32) {
	n := int(l.n)
	if n == 0 {
		return
	}
	o := l.o
	w := o.groupWidth[l.group]
	p := o.groupByte[l.group] + uint64(l.lo-o.groupEntry[l.group])*uint64(w)
	data := o.data[p : p+uint64(n)*uint64(w)]
	switch w {
	case 1:
		for i := 0; i < n; i++ {
			dst[i] = uint32(data[i])
		}
	case 2:
		for i := 0; i < n; i++ {
			dst[i] = uint32(data[2*i]) | uint32(data[2*i+1])<<8
		}
	case 3:
		for i := 0; i < n; i++ {
			dst[i] = uint32(data[3*i]) | uint32(data[3*i+1])<<8 | uint32(data[3*i+2])<<16
		}
	default:
		for i := 0; i < n; i++ {
			dst[i] = uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
		}
	}
}

// Len returns the total number of indexed entries.
func (o *OffsetLists) Len() int {
	return int(o.groupEntry[len(o.groupEntry)-1])
}

// SharedLevels reports whether the partitioning levels are borrowed from the
// primary index.
func (o *OffsetLists) SharedLevels() bool { return o.sharedLevels }

// MemoryBytes estimates the footprint. Shared partitioning levels cost
// nothing; otherwise the offsets array is charged to this index.
func (o *OffsetLists) MemoryBytes() int64 {
	b := int64(len(o.data)) + int64(len(o.groupWidth)) + int64(len(o.groupByte))*8 + int64(len(o.groupEntry))*4
	if !o.sharedLevels {
		b += int64(len(o.offsets)) * 4
	}
	return b
}
