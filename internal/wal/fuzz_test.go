package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
	"github.com/aplusdb/aplus/internal/vfs"
)

// The committed FuzzLoadCheckpoint corpus holds payloads (the image
// without its trailing CRC) of fuzzSeedStore:
//   - v2: the current format;
//   - v1: the previous format, which also stored both primary CSRs;
//   - v1-eid-out-of-range: the v1 image with its first forward edge ID set
//     past the edge table — the old decoder trusted it and panicked Open.
const fuzzCorpus = "testdata/fuzz/FuzzLoadCheckpoint"

// fuzzSeedStore is the seed images' store: a 30-vertex financial graph
// with 2 vertex and 2 edge labels, one deleted edge, the default primary,
// and a view sorted by the neighbour's city (a dictionary-coded string).
func fuzzSeedStore(tb testing.TB) *index.Store {
	tb.Helper()
	g := gen.Build(gen.Config{Name: "fin", NumVertices: 30, AvgDegree: 3,
		VertexLabels: 2, EdgeLabels: 2, Financial: true, Seed: 1})
	if err := g.DeleteEdge(3); err != nil {
		tb.Fatal(err)
	}
	st, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPc"},
		Dirs: []index.Direction{index.FW, index.BW},
		Cfg: index.Config{
			Partitions: []index.PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}},
			Sorts:      []index.SortKey{{Var: pred.VarNbr, Prop: storage.PropCity}},
		},
	}); err != nil {
		tb.Fatal(err)
	}
	return st
}

// readCorpus returns the payload of one committed corpus file.
func readCorpus(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(fuzzCorpus, name))
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		tb.Fatalf("%s: not a one-value []byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// writeFramed stores payload plus its CRC as checkpoint file name in dir.
func writeFramed(tb testing.TB, fs vfs.FS, dir, name string, payload []byte) {
	tb.Helper()
	data := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.Checksum(payload, castagnoli))
	if err := writeFileAtomic(fs, dir, name, data, false); err != nil {
		tb.Fatal(err)
	}
}

// scanStore reads every entry of every primary and secondary list.
func scanStore(st *index.Store) {
	g := st.Graph()
	for v := 0; v < g.NumVertices(); v++ {
		for _, dir := range []index.Direction{index.FW, index.BW} {
			st.Primary().List(dir, storage.VertexID(v), nil).Materialize()
		}
		for _, vp := range st.VertexIndexes() {
			for _, dir := range vp.Def().Dirs {
				vp.List(dir, storage.VertexID(v), nil).Materialize()
			}
		}
	}
	for _, ep := range st.EdgeIndexes() {
		for e := 0; e < g.NumEdges(); e++ {
			if !g.EdgeDeleted(storage.EdgeID(e)) {
				ep.List(storage.EdgeID(e), nil).Materialize()
			}
		}
	}
}

// FuzzLoadCheckpoint mutates checkpoint payloads, re-frames them with a
// valid CRC, and loads them: a CRC-valid image must either fail to load or
// yield a store whose every list reads without a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		fs := vfs.NewMem()
		writeFramed(t, fs, "", ckptName(1), payload)
		_, st, _, _, _, err := loadCheckpoint(fs, ckptName(1))
		if err != nil {
			return
		}
		scanStore(st)
	})
}

// seedCount runs a 2-hop count over the seed store's shape: a backward
// primary hop, then a forward hop through the VPc view.
func seedCount(st *index.Store) (count, icost int64) {
	plan := &exec.Plan{
		NumV: 3, NumE: 2,
		Ops: []exec.Op{
			&exec.ScanVertexOp{Slot: 0},
			&exec.ExtendIntersectOp{TargetSlot: 1, Lists: []exec.ListRef{
				{Kind: exec.ListPrimary, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&exec.ExtendIntersectOp{TargetSlot: 2, Lists: []exec.ListRef{
				{Kind: exec.ListVP, VP: st.VertexIndexes()[0], Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
		},
	}
	rt := exec.NewRuntime(st)
	return plan.Count(rt), rt.ICost
}

// TestCheckpointFormats opens each committed seed image as a database's
// only checkpoint. The current and the previous format, and the defect-C
// image whose corrupt edge ID sits in the v1 CSR payload that is no
// longer read, all open unquarantined to the counts the previous format's
// encoder saw (live edges 89, VPc entries 178, 2-hop count 569 at i-cost
// 658), and to a store equal element for element to a fresh build.
func TestCheckpointFormats(t *testing.T) {
	want := fuzzSeedStore(t)
	for _, name := range []string{"v2", "v1", "v1-eid-out-of-range"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeFramed(t, vfs.OS{}, dir, ckptName(3), readCorpus(t, name))
			e, rec, err := Open(dir, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if rec.Store == nil || rec.Epoch != 3 || e.Stats().LastCheckpointError != "" {
				t.Fatalf("checkpoint not used: epoch %d, error %q", rec.Epoch, e.Stats().LastCheckpointError)
			}
			if err := index.DiffStores(want, rec.Store); err != nil {
				t.Fatal(err)
			}
			live, vp := rec.Graph.NumLiveEdges(), rec.Store.VertexIndexes()[0].NumIndexedEdges()
			count, icost := seedCount(rec.Store)
			if live != 89 || vp != 178 || count != 569 || icost != 658 {
				t.Fatalf("live %d, VPc %d, count %d, i-cost %d; want 89, 178, 569, 658", live, vp, count, icost)
			}
		})
	}
	img := encodeCheckpoint(7, 3, want.Graph(), want)
	if string(readCorpus(t, "v2")) != string(img[:len(img)-4]) {
		t.Fatal("the committed v2 seed is not what encodeCheckpoint writes for the seed store")
	}
}

// TestCheckpointNewerVersionRefused: an image written by a later format
// version fails Open with an error and is left in place, not quarantined
// as corrupt.
func TestCheckpointNewerVersionRefused(t *testing.T) {
	payload := readCorpus(t, "v2")
	payload[4] = ckptVersion + 1 // after the 4-byte magic
	dir := t.TempDir()
	writeFramed(t, vfs.OS{}, dir, ckptName(3), payload)
	if _, _, err := Open(dir, false, nil); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("Open = %v, want a newer-version error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(3))); err != nil {
		t.Fatalf("checkpoint moved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(3)+".corrupt")); err == nil {
		t.Fatal("newer-version checkpoint quarantined")
	}
}
