package harness

import (
	"fmt"
	"time"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// MergeBench measures the write path's fold cost: it builds the largest
// bench graph (Orkut at 8x the table scale, about a million edges at
// -scale 1), stages update deltas of increasing size through the snapshot
// overlay machinery, and folds each delta twice — once with the O(E) full
// rebuild (index.Store.CloneRebuilt) and once with the O(delta)
// incremental patch (CloneIncremental) — reporting both latencies and their
// ratio. A shared-level secondary index rides along so the secondary patch
// path is measured, not just the primary's.
//
// Parity is enforced, not assumed: for every delta the two successor
// stores must be equal under index.DiffStores (both primary CSRs element
// for element, the edge bound, the configuration and the view definitions)
// and give equal edge counts plus i-cost through the executor's fetch path. The rows are
// not part of "-exp all": fold latency is hardware-dependent and must not
// gate -baseline runs.
func MergeBench(o Options) []Row {
	w := o.out()
	c := scaled(gen.Orkut.WithLabels(2, 4), 8*o.scale())
	c.Time = true
	g := gen.Build(c)
	cfg := ConfigD()
	s := buildStore(g, cfg)
	if _, err := s.CreateVertexPartitioned(VPtDef()); err != nil {
		panic(err)
	}
	numOwners := 2 * g.NumVertices()
	header(w, fmt.Sprintf("Merge: incremental vs full fold, %s (%d vertices, %d edges, VPt secondary)",
		c.Name, g.NumVertices(), g.NumLiveEdges()))

	var rows []Row
	rng := gen.NewRand(7)
	for _, frac := range []float64{0.001, 0.01, 0.05} {
		// Stage a delta whose dirty-owner footprint is ~frac of the 2|V|
		// primary lists: each inserted edge dirties one forward and one
		// backward list, each delete two more.
		ops := int(frac * float64(numOwners) / 2)
		if ops < 4 {
			ops = 4
		}
		g2 := g.Clone()
		b := index.NewDeltaBuilder(index.NewDelta(), s.Primary(), g2)
		for i := 0; i < ops; i++ {
			if i%8 == 7 {
				b.Delete(storage.EdgeID(rng.Intn(g.NumEdges())))
				continue
			}
			src := storage.VertexID(rng.Intn(g.NumVertices()))
			dst := storage.VertexID(rng.Intn(g.NumVertices()))
			e, err := g2.AddEdge(src, dst, fmt.Sprintf("E%d", rng.Intn(4)))
			if err != nil {
				panic(err)
			}
			mustSetProp(g2.SetEdgeProp(e, "time", storage.Int(int64(rng.Intn(1_000_000)))))
			b.Insert(e)
		}
		if b.Impossible() {
			panic("merge bench delta unexpectedly unbufferable")
		}
		d := b.Freeze()
		dirty := d.DirtyOwners()
		label := fmt.Sprintf("d=%.1f%%", 100*float64(dirty)/float64(numOwners))

		gFull := g2.Clone()
		gFull.ApplyTombstones(d.DeletedEdges())
		startFull := time.Now()
		full, err := s.CloneRebuilt(gFull, cfg)
		if err != nil {
			panic(err)
		}
		fullSecs := time.Since(startFull).Seconds()

		gInc := g2.Clone()
		gInc.ApplyTombstones(d.DeletedEdges())
		startInc := time.Now()
		inc, ok := s.CloneIncremental(gInc, d)
		if !ok {
			panic("incremental fold declined a bufferable delta")
		}
		incSecs := time.Since(startInc).Seconds()

		count, icost := verifyMergeParity(full, inc)
		fmt.Fprintf(w, "%-8s %6d dirty owners  full %9.2fms  incremental %9.2fms  (%.1fx)  edges=%d icost=%d\n",
			label, dirty, fullSecs*1e3, incSecs*1e3, fullSecs/incSecs, count, icost)
		rows = append(rows,
			Row{Table: "merge", Dataset: c.Name, Config: "full", Query: label, Seconds: fullSecs, Count: count, ICost: icost},
			Row{Table: "merge", Dataset: c.Name, Config: "incremental", Query: label, Seconds: incSecs, Count: count, ICost: icost},
		)
	}
	return rows
}

// verifyMergeParity panics unless the two successor stores are
// indistinguishable: equal under index.DiffStores, and equal edge count and
// i-cost through the executor's primary fetch path. It returns the agreed
// (count, icost).
func verifyMergeParity(full, inc *index.Store) (int64, int64) {
	if err := index.DiffStores(full, inc); err != nil {
		panic(fmt.Sprintf("merge parity: %v", err))
	}
	plan := &exec.Plan{
		NumV: 2, NumE: 1,
		Ops: []exec.Op{
			&exec.ScanVertexOp{Slot: 0},
			&exec.ExtendIntersectOp{TargetSlot: 1, Lists: []exec.ListRef{
				{Kind: exec.ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
		},
	}
	rtF := exec.NewRuntime(full)
	cf := plan.Count(rtF)
	rtI := exec.NewRuntime(inc)
	ci := plan.Count(rtI)
	if cf != ci || rtF.ICost != rtI.ICost {
		panic(fmt.Sprintf("merge parity: count/icost diverge (%d/%d vs %d/%d)", cf, rtF.ICost, ci, rtI.ICost))
	}
	return cf, rtF.ICost
}

func mustSetProp(err error) {
	if err != nil {
		panic(err)
	}
}
