package main

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/workload"
)

// mixedLowID anchors the reader's MR1/MR2 on users a1.ID < 100.
const mixedLowID = 100

// mixedReplay is the number of reads the traced run replays layer by layer.
const mixedReplay = 50

// runMixed: a durable database (fsync on, the default flush policy) holds
// the follow graph and the VPt view; one writer commits singleton follows
// with random times while one reader repeats fixed MR1 and MR2 texts. Reader
// counts may never decrease, and after Close and reopen the database must
// hold the loaded edges plus every acknowledged commit.
func runMixed(c config, res *result) error {
	ctx := context.Background()
	g := gen.Build(followGraph())
	alpha, err := timeAlpha(g)
	if err != nil {
		return err
	}
	texts := workload.MR(alpha, mixedLowID)[:2]
	nv := g.NumVertices()
	loaded := g.NumLiveEdges()

	// Set-up takes a fraction of a second and is dominated by fsyncs, so
	// more repetitions steady its median cheaply.
	reps := 3 * setupReps
	if c.trace {
		reps = 1
	}
	var db *aplus.DB
	var dir string
	discard := func() {
		if db != nil {
			db.Close()
			os.RemoveAll(dir)
			db = nil
		}
	}
	defer discard()
	fs := &timedFS{}
	base := make([]int64, len(texts))
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		discard()
		release()
		if dir, err = tempDir(c.work, "mixed-"); err != nil {
			return err
		}
		var opts aplus.OpenOptions
		if c.trace {
			opts.VFS = fs
		}
		start := time.Now()
		if db, err = opts.Open(dir); err != nil {
			return err
		}
		if err := db.Batch(func(b *aplus.Batch) error { return load(b, g) }); err != nil {
			return err
		}
		if err := db.Exec(ddlVPt); err != nil {
			return err
		}
		if err := db.Flush(); err != nil {
			return err
		}
		for i, q := range texts {
			if base[i], err = db.CountCtx(ctx, q.Cypher); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	release()
	st := db.Stats()
	indexBytes := st.PrimaryLevelBytes + st.PrimaryIDListBytes + st.SecondaryIndexBytes

	last := append([]int64(nil), base...)
	wrng := rand.New(rand.NewSource(c.seed))
	acked := 0
	nextRead := 0
	// run is the closed loop: worker 0 writes, worker 1 reads.
	run := func(d time.Duration, tr *tracer) (reads, commits []sample, ws []window) {
		var rl, wl lats
		var req [2]int64
		start := time.Now()
		closedLoop(2, d, func(w int) {
			req[w]++
			var end func() time.Duration
			if w == 0 {
				src, dst := wrng.Intn(nv), wrng.Intn(nv)
				props := aplus.Props{"time": wrng.Int63n(1_000_000)}
				if tr != nil {
					end, _ = tr.begin("aplus.commit", 0, 2*req[w])
				}
				t := time.Now()
				_, err := db.AddEdge(aplus.VertexID(src), aplus.VertexID(dst), "E0", props)
				wl.add(t, err)
				if end != nil {
					end()
				}
				if err == nil {
					acked++
				}
				return
			}
			i := nextRead % len(texts)
			nextRead++
			if tr != nil {
				end, _ = tr.begin("aplus.read", 0, 2*req[w]+1)
			}
			t := time.Now()
			n, err := db.CountCtx(ctx, texts[i].Cypher)
			rl.add(t, err)
			if end != nil {
				end()
			}
			if err == nil {
				if n < last[i] {
					res.fail("%s count fell from %d to %d", texts[i].Name, last[i], n)
				}
				last[i] = n
			}
		})
		reads, commits = merge([]lats{rl}, res), merge([]lats{wl}, res)
		return reads, commits, chunked(reads, start, windowsPerRun)
	}
	// reopen closes and reopens the directory and checks what survived.
	reopen := func() error {
		start := time.Now()
		if err := db.Close(); err != nil {
			return err
		}
		if db, err = aplus.Open(dir); err != nil {
			return err
		}
		res.note("reopen_s", time.Since(start).Seconds(), "s", 1)
		if got, want := db.Stats().NumEdges, loaded+acked; got != want {
			res.fail("after reopen NumEdges = %d, want %d loaded + %d acknowledged", got, loaded, acked)
		}
		for i, q := range texts {
			n, err := db.CountCtx(ctx, q.Cypher)
			res.op(err)
			if err == nil && n < last[i] {
				res.fail("%s after reopen counted %d, below %d", q.Name, n, last[i])
			}
		}
		return nil
	}

	if !c.trace {
		reads, commits, ws := run(c.dur, nil)
		reportReads(res, reads, ws, 0.95)
		cl := latencies(commits)
		res.note("commits_per_s", rate(commits, ws), "1/s", len(commits))
		res.note("commit_p50_ms", median(cl), "ms", len(cl))
		res.note("commit_p99_ms", quantile(cl, 0.99), "ms", len(cl))
		if err := reopen(); err != nil {
			return err
		}
		return selfPeak(res, setups, indexBytes)
	}

	tr := newTracer()
	var ls layerStats
	before := db.Stats()
	reads, _, ws := run(c.dur/2, nil)
	after := db.Stats()
	ls.reads = int64(len(reads))
	ls.planHits = after.PlanCacheHits - before.PlanCacheHits
	ls.planMisses = after.PlanCacheMisses - before.PlanCacheMisses
	ls.untracedRPS = rate(reads, ws)

	// Traced phase: fsyncs timed in the VFS, bytes written from
	// /proc/self/io, and each fold's duration polled from Stats.
	ackedBefore := acked
	wrote, err := writtenBytes()
	if err != nil {
		return err
	}
	fs.record(true)
	stopPoll := make(chan struct{})
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		seen := after.FoldsTotal
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			st := db.Stats()
			if st.FoldsTotal == seen {
				continue
			}
			seen = st.FoldsTotal
			ls.foldTimes = append(ls.foldTimes, st.LastFoldDuration)
			if st.LastFoldDuration > ls.foldMax {
				ls.foldMax = st.LastFoldDuration
			}
		}
	}()
	reads, _, ws = run(c.dur/2, tr)
	close(stopPoll)
	polled.Wait()
	ls.fsyncs = fs.record(false)
	wroteAfter, err := writtenBytes()
	if err != nil {
		return err
	}
	if n := acked - ackedBefore; n > 0 {
		ls.bytesPerEdge = float64(wroteAfter-wrote) / float64(n)
	}
	ls.tracedRPS = rate(reads, ws)
	end := db.Stats()
	ls.folds = end.FoldsTotal - after.FoldsTotal
	ls.incrementalFolds = end.IncrementalFolds - after.IncrementalFolds
	if err := reopen(); err != nil {
		return err
	}
	discard()
	release()

	var reqs []request
	for i := 0; i < mixedReplay; i++ {
		reqs = append(reqs, request{texts[i%len(texts)].Cypher, base[i%len(texts)]})
	}
	if err := replayLayers(tr, res, followGraph(), runtime.GOMAXPROCS(0), []viewBuild{viewVPt}, []viewBuild{viewEPt}, reqs); err != nil {
		return err
	}
	mem, err := memDB(g, ddlVPt)
	if err != nil {
		return err
	}
	defer mem.Close()
	replayCounts(tr, res, "aplus.count", reqs, func(q string) (int64, error) { return mem.CountCtx(ctx, q) })
	if err := clusterReplay(tr, res, g, []string{ddlVPt}, reqs); err != nil {
		return err
	}
	if err := pingProbe(c, tr, res, nil); err != nil {
		return err
	}
	commitProbe(tr, res, mem, c.seed)
	reportLayers(res, tr, &ls)
	return finishTrace(tr, c.work, "mixed", c.seed)
}
