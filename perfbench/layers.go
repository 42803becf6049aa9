package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/harness"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/shard"
	"github.com/aplusdb/aplus/internal/storage"
	"github.com/aplusdb/aplus/internal/vfs"
)

// request is one read of a replayed stream with the count it must return.
type request struct {
	text string
	want int64
}

// viewBuild builds one secondary index through the index layer; kind is
// "vp" or "ep".
type viewBuild struct {
	kind  string
	build func(*index.Store) error
}

func vpBuild(def index.VPDef) viewBuild {
	return viewBuild{"vp", func(s *index.Store) error { _, err := s.CreateVertexPartitioned(def); return err }}
}

func epBuild(def index.EPDef) viewBuild {
	return viewBuild{"ep", func(s *index.Store) error { _, err := s.CreateEdgePartitioned(def); return err }}
}

// The same views the workloads create by DDL, as index-layer definitions.
var (
	viewVPc = vpBuild(harness.VPcDef())
	viewEPc = epBuild(harness.EPcDef(mfAlpha))
	viewVPt = vpBuild(harness.VPtDef())
	// viewEPt is the maintenance benchmark's 2-hop time view; workloads
	// that build no 2-hop view build it on their traced store only, so
	// index.ep_build_s is measured on every workload.
	viewEPt = epBuild(harness.EPtDef(10_000))
)

// layerStats gathers the per-layer numbers that do not come from spans.
type layerStats struct {
	reads, planHits, planMisses int64 // untraced phase, plan cache summed over shards
	untracedRPS, tracedRPS      float64

	folds, incrementalFolds int64
	foldTimes               []time.Duration
	foldMax                 time.Duration

	fsyncs       []time.Duration
	bytesPerEdge float64
}

// replayLayers builds cfg's graph through gen and the index layer, with the
// workload's views, then replays reqs through query.Parse, opt.Optimize
// and exec.Plan.CountParallel, one span per call. Probe views are built
// after the replay, so they never change its plans. It also times a full
// decode pass over the primary lists.
func replayLayers(tr *tracer, res *result, cfg gen.Config, workers int, views, probes []viewBuild, reqs []request) error {
	end, _ := tr.begin("gen.build", 0, 0)
	g := gen.Build(cfg)
	end()
	end, _ = tr.begin("index.primary_build", 0, 0)
	s, err := index.NewStore(g, index.DefaultConfig())
	end()
	if err != nil {
		return fmt.Errorf("primary build: %w", err)
	}
	for _, v := range views {
		end, _ := tr.begin("index."+v.kind+"_build", 0, 0)
		err := v.build(s)
		end()
		if err != nil {
			return fmt.Errorf("%s build: %w", v.kind, err)
		}
	}
	st := s.Stats()
	primary := st.PrimaryLevels + st.PrimaryIDLists
	res.report("index.primary_bytes", float64(primary), "bytes", 0, true)
	res.report("index.secondary_bytes", float64(st.SecondaryBytes), "bytes", 0, true)
	perEdge := 0.0
	if secondaryEdges := st.IndexedEdges - int64(g.NumLiveEdges()); secondaryEdges > 0 {
		perEdge = float64(st.SecondaryBytes) / float64(secondaryEdges)
	}
	res.report("index.secondary_bytes_per_indexed_edge", perEdge, "bytes", 0, true)

	popts := exec.ParallelOptions{Workers: workers}
	var icost int64
	var execTime time.Duration
	for i, rq := range reqs {
		req := int64(i + 1)
		endReq, root := tr.begin("request", 0, req)
		end, _ := tr.begin("query.parse", root, req)
		q, err := query.Parse(rq.text)
		end()
		if err != nil {
			endReq()
			return fmt.Errorf("parse %q: %w", rq.text, err)
		}
		end, _ = tr.begin("opt.optimize", root, req)
		plan, err := opt.Optimize(s, q, opt.ModeDefault)
		end()
		if err != nil {
			endReq()
			return fmt.Errorf("optimize %q: %w", rq.text, err)
		}
		rt := exec.NewRuntime(s)
		end, _ = tr.begin("exec.count", root, req)
		n, err := plan.CountParallel(rt, popts)
		execTime += end()
		endReq()
		res.op(err)
		if err == nil && n != rq.want {
			res.fail("layer replay: %q counted %d, want %d", rq.text, n, rq.want)
		}
		icost += rt.ICost
	}
	if len(reqs) > 0 {
		res.report("exec.icost_per_read", float64(icost)/float64(len(reqs)), "count", len(reqs), true)
	}
	if icost > 0 {
		res.report("exec.ns_per_icost", float64(execTime)/float64(icost), "ns", len(reqs), false)
	}

	decodePass(tr, res, s)

	for _, v := range probes {
		end, _ := tr.begin("index."+v.kind+"_build", 0, 0)
		err := v.build(s)
		end()
		if err != nil {
			return fmt.Errorf("probe %s build: %w", v.kind, err)
		}
	}
	return nil
}

// decodePass decodes every primary adjacency list, both directions, until
// at least 200 ms have been spent, and reports ns per decoded entry.
func decodePass(tr *tracer, res *result, s *index.Store) {
	p := s.Primary()
	nv := s.Graph().NumVertices()
	var nbrs []uint32
	var eids []uint64
	var entries int64
	var spent time.Duration
	passes := 0
	for spent < 200*time.Millisecond {
		end, _ := tr.begin("csr.decode_pass", 0, 0)
		for _, dir := range []index.Direction{index.FW, index.BW} {
			for v := 0; v < nv; v++ {
				nbrs, eids = p.OwnerList(dir, storage.VertexID(v)).DecodeInto(nbrs, eids)
				entries += int64(len(nbrs))
			}
		}
		spent += end()
		passes++
	}
	if entries > 0 {
		res.report("csr.decode_ns_per_entry", float64(spent)/float64(entries), "ns", passes, false)
	}
}

// replayCounts sends every request through fn under a span named name and
// checks the counts.
func replayCounts(tr *tracer, res *result, name string, reqs []request, fn func(string) (int64, error)) {
	for i, rq := range reqs {
		end, _ := tr.begin(name, 0, int64(i+1))
		n, err := fn(rq.text)
		end()
		res.op(err)
		if err == nil && n != rq.want {
			res.fail("%s: %q counted %d, want %d", name, rq.text, n, rq.want)
		}
	}
}

// clusterReplay loads g into an in-process cluster at aplusd's default
// shard count, runs ddl, and replays reqs through it.
func clusterReplay(tr *tracer, res *result, g *storage.Graph, ddl []string, reqs []request) error {
	c, err := shard.New(shard.Options{Shards: defaultShards})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Batch(func(b *shard.Batch) error { return load(b, g) }); err != nil {
		return err
	}
	for _, d := range ddl {
		if err := c.Exec(d); err != nil {
			return err
		}
	}
	ctx := context.Background()
	replayCounts(tr, res, "shard.count", reqs, func(q string) (int64, error) { return c.CountCtx(ctx, q) })
	return nil
}

// defaultShards is aplusd's default -shards value.
const defaultShards = 2

// pingProbe times client.Health round trips against srv, or, when srv is
// nil, against an empty aplusd started for the probe.
func pingProbe(c config, tr *tracer, res *result, srv *server) error {
	if srv == nil {
		s, err := startServer(c.aplusd)
		if err != nil {
			return err
		}
		defer s.stop()
		srv = s
	}
	cls, err := dial(srv, 1)
	if err != nil {
		return err
	}
	defer closeAll(cls)
	for i := 0; i < probePings; i++ {
		end, _ := tr.begin("client.health", 0, int64(i+1))
		_, err := cls[0].Health()
		end()
		res.op(err)
	}
	return nil
}

// Probe sizes: enough samples for a steady median, small next to a run.
const (
	probePings   = 200
	probeCommits = 300
)

// commitProbe times singleton AddEdge commits on an in-memory database
// (no write-ahead log), then forces one fold.
func commitProbe(tr *tracer, res *result, db *aplus.DB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nv := db.Stats().NumVertices
	for i := 0; i < probeCommits; i++ {
		end, _ := tr.begin("snap.commit", 0, int64(i+1))
		_, err := db.AddEdge(aplus.VertexID(rng.Intn(nv)), aplus.VertexID(rng.Intn(nv)), "E0", aplus.Props{"time": rng.Int63n(1_000_000)})
		end()
		res.op(err)
	}
	end, _ := tr.begin("snap.flush", 0, 0)
	res.op(db.Flush())
	end()
}

// foldStats reads fold counters into ls; for a database whose folds the
// benchmark forced with Flush.
func (ls *layerStats) foldStats(st aplus.Stats) {
	ls.folds = st.FoldsTotal
	ls.incrementalFolds = st.IncrementalFolds
	ls.foldTimes = append(ls.foldTimes, st.LastFoldDuration)
	ls.foldMax = st.FoldDuration.Max
}

// timedFS is the real filesystem with every file's Sync timed; it lets the
// benchmark see each WAL and checkpoint fsync from outside the engine.
type timedFS struct {
	vfs.OS
	mu     sync.Mutex
	on     bool
	fsyncs []time.Duration
}

type timedFile struct {
	vfs.File
	fs *timedFS
}

func (f *timedFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return timedFile{file, f}, nil
}

func (f *timedFS) OpenFile(path string, flag int) (vfs.File, error) {
	return f.wrap(f.OS.OpenFile(path, flag))
}

func (f *timedFS) CreateTemp(dir, pattern string) (vfs.File, string, error) {
	file, name, err := f.OS.CreateTemp(dir, pattern)
	file, err = f.wrap(file, err)
	return file, name, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	if f.fs.on {
		f.fs.fsyncs = append(f.fs.fsyncs, d)
	}
	f.fs.mu.Unlock()
	return err
}

// record turns fsync timing on or off and returns what was timed so far.
func (f *timedFS) record(on bool) []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.on = on
	return append([]time.Duration(nil), f.fsyncs...)
}

// durableProbe opens a fresh durable database (fsync on), loads g, and
// times singleton commits, their fsyncs and the bytes the process wrote
// for them.
func durableProbe(c config, tr *tracer, res *result, ls *layerStats, g *storage.Graph) error {
	dir, err := tempDir(c.work, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs := &timedFS{}
	db, err := aplus.OpenOptions{VFS: fs}.Open(dir)
	if err != nil {
		return err
	}
	if err := db.Batch(func(b *aplus.Batch) error { return load(b, g) }); err != nil {
		db.Close()
		return err
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return err
	}
	before, err := writtenBytes()
	if err != nil {
		db.Close()
		return err
	}
	fs.record(true)
	rng := rand.New(rand.NewSource(c.seed))
	nv := g.NumVertices()
	var acked int64
	for i := 0; i < probeCommits; i++ {
		end, _ := tr.begin("wal.commit", 0, int64(i+1))
		_, err := db.AddEdge(aplus.VertexID(rng.Intn(nv)), aplus.VertexID(rng.Intn(nv)), "E0", aplus.Props{"time": rng.Int63n(1_000_000)})
		end()
		res.op(err)
		if err == nil {
			acked++
		}
	}
	ls.fsyncs = fs.record(false)
	after, err := writtenBytes()
	if err != nil {
		db.Close()
		return err
	}
	if acked > 0 {
		ls.bytesPerEdge = float64(after-before) / float64(acked)
	}
	return db.Close()
}

// reportLayers emits every per-layer metric from the spans and ls.
func reportLayers(res *result, tr *tracer, ls *layerStats) {
	med := func(name string, unit func(time.Duration) float64) (float64, int) {
		ds := tr.durations(name)
		return median(durationsIn(ds, unit)), len(ds)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	one := func(name string) float64 {
		v, _ := med(name, sec)
		return v
	}
	for _, m := range []struct{ metric, span, unit string }{
		{"query.parse_us", "query.parse", "us"},
		{"opt.plan_us", "opt.optimize", "us"},
		{"server.ping_us", "client.health", "us"},
		{"shard.count_us", "shard.count", "us"},
		{"aplus.count_us", "aplus.count", "us"},
		{"snap.commit_us", "snap.commit", "us"},
	} {
		v, n := med(m.span, us)
		res.report(m.metric, v, m.unit, n, false)
	}
	v, n := med("exec.count", ms)
	res.report("exec.run_ms", v, "ms", n, false)
	res.report("index.primary_build_s", one("index.primary_build"), "s", 1, false)
	res.report("index.vp_build_s", one("index.vp_build"), "s", 1, false)
	res.report("index.ep_build_s", one("index.ep_build"), "s", 1, false)

	lookups := ls.planHits + ls.planMisses
	hit := 0.0
	if lookups > 0 {
		hit = float64(ls.planHits) / float64(lookups)
	}
	res.report("plancache.hit_ratio", hit, "ratio", int(lookups), false)
	perRead := 0.0
	if ls.reads > 0 {
		perRead = float64(ls.planMisses) / float64(ls.reads)
	}
	res.report("opt.plans_per_read", perRead, "count", int(ls.reads), false)

	fs := durationsIn(ls.fsyncs, us)
	res.report("wal.fsync_p50_us", quantile(fs, 0.5), "us", len(fs), false)
	res.report("wal.fsync_p99_us", quantile(fs, 0.99), "us", len(fs), false)
	res.report("wal.write_bytes_per_edge", ls.bytesPerEdge, "bytes", 0, false)

	res.report("snap.folds", float64(ls.folds), "count", 0, false)
	folds := durationsIn(ls.foldTimes, ms)
	res.report("snap.fold_ms_p50", median(folds), "ms", len(folds), false)
	res.report("snap.fold_ms_max", ms(ls.foldMax), "ms", len(folds), false)
	inc := 0.0
	if ls.folds > 0 {
		inc = float64(ls.incrementalFolds) / float64(ls.folds)
	}
	res.report("snap.incremental_fold_ratio", inc, "ratio", int(ls.folds), false)

	res.report("trace.reads_per_s_untraced", ls.untracedRPS, "1/s", 0, false)
	res.report("trace.reads_per_s_traced", ls.tracedRPS, "1/s", 0, false)
	over := 0.0
	if ls.untracedRPS > 0 {
		over = 1 - ls.tracedRPS/ls.untracedRPS
	}
	res.report("trace.overhead_frac", over, "ratio", 0, false)
	res.report("trace.spans", float64(tr.len()), "count", 0, false)
}

// finishTrace writes the spans and prints per-layer self times.
func finishTrace(tr *tracer, dir, workload string, seed int64) error {
	path := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", tr.len(), path)
	for name, d := range tr.selfTimes() {
		fmt.Printf("self time %-24s %12.3f ms\n", name, ms(d))
	}
	return nil
}

// tempDir makes a scratch directory under the run's work directory.
func tempDir(work, pattern string) (string, error) {
	base := filepath.Join(work, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}
