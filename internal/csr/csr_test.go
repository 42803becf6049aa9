package csr

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildSmall builds a CSR over 3 owners, 1 level of cardinality 2.
func buildSmall() *CSR {
	b := NewBuilder(3, []int{2})
	// owner 0: bucket0 -> nbrs {2,1}; bucket1 -> {5}
	b.Add(Entry{Owner: 0, Nbr: 2, EID: 10}, []uint16{0})
	b.Add(Entry{Owner: 0, Nbr: 1, EID: 11}, []uint16{0})
	b.Add(Entry{Owner: 0, Nbr: 5, EID: 12}, []uint16{1})
	// owner 2: bucket1 -> {7}
	b.Add(Entry{Owner: 2, Nbr: 7, EID: 13}, []uint16{1})
	return b.Build()
}

func TestCSRBucketRanges(t *testing.T) {
	c := buildSmall()
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	lo, hi := c.BucketRange(0, []uint16{0})
	if hi-lo != 2 {
		t.Fatalf("owner0/bucket0 size = %d, want 2", hi-lo)
	}
	// Within a bucket entries sort by neighbour ID.
	if c.Nbrs()[lo] != 1 || c.Nbrs()[lo+1] != 2 {
		t.Errorf("bucket not sorted by nbr: %v", c.Nbrs()[lo:hi])
	}
	lo, hi = c.BucketRange(0, []uint16{1})
	if hi-lo != 1 || c.Nbrs()[lo] != 5 {
		t.Error("owner0/bucket1 wrong")
	}
	// Empty owner.
	lo, hi = c.OwnerRange(1)
	if hi != lo {
		t.Error("owner1 should be empty")
	}
	lo, hi = c.OwnerRange(2)
	if hi-lo != 1 || c.EIDs()[lo] != 13 {
		t.Error("owner2 wrong")
	}
}

func TestCSRPrefixRangeSpansSublists(t *testing.T) {
	// Two levels: cardinality 2 and 3.
	b := NewBuilder(2, []int{2, 3})
	want := map[[3]uint16][]uint32{}
	n := uint32(0)
	for owner := uint16(0); owner < 2; owner++ {
		for c0 := uint16(0); c0 < 2; c0++ {
			for c1 := uint16(0); c1 < 3; c1++ {
				for k := 0; k < 2; k++ {
					b.Add(Entry{Owner: uint32(owner), Nbr: n, EID: uint64(n)}, []uint16{c0, c1})
					want[[3]uint16{owner, c0, c1}] = append(want[[3]uint16{owner, c0, c1}], n)
					n++
				}
			}
		}
	}
	c := b.Build()
	// Full owner range = 12 entries each.
	for owner := uint32(0); owner < 2; owner++ {
		lo, hi := c.OwnerRange(owner)
		if hi-lo != 12 {
			t.Fatalf("owner %d range size %d, want 12", owner, hi-lo)
		}
		// Prefix over level 0 only = 6 entries.
		for c0 := uint16(0); c0 < 2; c0++ {
			lo, hi := c.PrefixRange(owner, []uint16{c0})
			if hi-lo != 6 {
				t.Fatalf("prefix range size %d, want 6", hi-lo)
			}
		}
		// Fully specified buckets contain exactly the entries added.
		for c0 := uint16(0); c0 < 2; c0++ {
			for c1 := uint16(0); c1 < 3; c1++ {
				lo, hi := c.BucketRange(owner, []uint16{c0, c1})
				got := c.Nbrs()[lo:hi]
				w := want[[3]uint16{uint16(owner), c0, c1}]
				if len(got) != len(w) {
					t.Fatalf("bucket size mismatch")
				}
				for i := range got {
					if got[i] != w[i] {
						t.Fatalf("bucket contents %v, want %v", got, w)
					}
				}
			}
		}
	}
}

func TestCSRSortKeysOrderWithinBucket(t *testing.T) {
	b := NewBuilder(1, nil)
	// Sort key 0 descending insert order, expect ascending after build.
	b.Add(Entry{Owner: 0, Nbr: 9, EID: 1, Sort: [2]uint64{30, 0}}, nil)
	b.Add(Entry{Owner: 0, Nbr: 1, EID: 2, Sort: [2]uint64{20, 0}}, nil)
	b.Add(Entry{Owner: 0, Nbr: 5, EID: 3, Sort: [2]uint64{10, 0}}, nil)
	// Tie on Sort[0], break on Sort[1].
	b.Add(Entry{Owner: 0, Nbr: 7, EID: 4, Sort: [2]uint64{10, 5}}, nil)
	c := b.Build()
	lo, hi := c.OwnerRange(0)
	got := c.Nbrs()[lo:hi]
	want := []uint32{5, 7, 1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted nbrs = %v, want %v", got, want)
		}
	}
}

func TestCSRRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		owners := 1 + rng.Intn(70) // cross the 64-owner group boundary
		cards := []int{1 + rng.Intn(4), 1 + rng.Intn(3)}
		b := NewBuilder(owners, cards)
		type rec struct {
			owner  uint32
			c0, c1 uint16
			nbr    uint32
			eid    uint64
		}
		var recs []rec
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			r := rec{
				owner: uint32(rng.Intn(owners)),
				c0:    uint16(rng.Intn(cards[0])),
				c1:    uint16(rng.Intn(cards[1])),
				nbr:   uint32(rng.Intn(50)),
				eid:   uint64(i),
			}
			recs = append(recs, r)
			b.Add(Entry{Owner: r.owner, Nbr: r.nbr, EID: r.eid}, []uint16{r.c0, r.c1})
		}
		c := b.Build()
		if c.Len() != n {
			t.Fatalf("Len = %d, want %d", c.Len(), n)
		}
		for owner := uint32(0); owner < uint32(owners); owner++ {
			for c0 := uint16(0); c0 < uint16(cards[0]); c0++ {
				for c1 := uint16(0); c1 < uint16(cards[1]); c1++ {
					var want []uint32
					for _, r := range recs {
						if r.owner == owner && r.c0 == c0 && r.c1 == c1 {
							want = append(want, r.nbr)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					lo, hi := c.BucketRange(owner, []uint16{c0, c1})
					got := c.Nbrs()[lo:hi]
					if len(got) != len(want) {
						t.Fatalf("bucket (%d,%d,%d): size %d want %d", owner, c0, c1, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("bucket (%d,%d,%d): %v want %v", owner, c0, c1, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPosInOwner(t *testing.T) {
	c := buildSmall()
	lo, hi := c.BucketRange(0, []uint16{1})
	if hi-lo != 1 {
		t.Fatal("setup")
	}
	if off := c.PosInOwner(0, lo); off != 2 {
		t.Errorf("PosInOwner = %d, want 2 (third entry of owner 0)", off)
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		n    uint32
		want uint8
	}{
		{0, 1}, {1, 1}, {255, 1}, {256, 1}, {257, 2}, {1 << 16, 2}, {1<<16 + 1, 3}, {1 << 24, 3}, {1<<24 + 1, 4},
	}
	for _, c := range cases {
		if got := widthFor(c.n); got != c.want {
			t.Errorf("widthFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMemoryBytesSplit(t *testing.T) {
	c := buildSmall()
	levels, ids := c.MemoryBytes()
	if levels <= 0 || ids != 4*4+4*8 {
		t.Errorf("MemoryBytes = (%d,%d)", levels, ids)
	}
}

func TestCSRQuickOwnerRangesPartition(t *testing.T) {
	// Property: owner ranges partition [0, Len) in owner order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		owners := 1 + rng.Intn(10)
		b := NewBuilder(owners, []int{2})
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			b.Add(Entry{Owner: uint32(rng.Intn(owners)), Nbr: uint32(i), EID: uint64(i)},
				[]uint16{uint16(rng.Intn(2))})
		}
		c := b.Build()
		prev := uint32(0)
		for o := uint32(0); o < uint32(owners); o++ {
			lo, hi := c.OwnerRange(o)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return int(prev) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDiffCatchesOneEntry: Diff accepts equal CSRs and rejects a change to
// any single element of each array it compares.
func TestDiffCatchesOneEntry(t *testing.T) {
	if err := Diff(buildSmall(), buildSmall()); err != nil {
		t.Fatalf("equal CSRs: %v", err)
	}
	for name, mutate := range map[string]func(c *CSR){
		"owners":  func(c *CSR) { c.numOwners++ },
		"cards":   func(c *CSR) { c.cards = []int{3} },
		"offsets": func(c *CSR) { c.offsets[1]++ },
		"nbr":     func(c *CSR) { c.nbr[2]++ },
		"eid":     func(c *CSR) { c.eid[3]++ },
		"length":  func(c *CSR) { c.eid = c.eid[:3] },
	} {
		c := buildSmall()
		mutate(c)
		if Diff(buildSmall(), c) == nil {
			t.Errorf("%s: change not detected", name)
		}
	}
}
