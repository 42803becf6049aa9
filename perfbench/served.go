package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/aplusdb/aplus/internal/client"
	"github.com/aplusdb/aplus/internal/gen"
)

// servedClients is the closed loop's connection count (one per core of the
// two-core measurement machine).
const servedClients = 2

// servedChecked is how many responses per connection, from the start of
// the measured stream, are checked against the embedded reference.
const servedChecked = 32

// runServed: aplusd at its default flags (in-memory, 2 replica shards),
// loaded over the wire, serves per-user MagicRecs MR1/MR2 requests from a
// closed loop over 2 connections. Anchors are uniform over all 4800 users,
// so the 9600 distinct texts overflow the 256-entry plan cache.
func runServed(c config, res *result) error {
	ctx := context.Background()
	g := gen.Build(followGraph())
	alpha, err := timeAlpha(g)
	if err != nil {
		return err
	}
	nv := g.NumVertices()
	ref, err := memDB(g)
	if err != nil {
		return err
	}
	defer ref.Close()

	reps := setupReps
	if c.trace {
		reps = 1
	}
	var srv *server
	var cls []*client.Client
	stop := func() {
		closeAll(cls)
		if srv != nil {
			if err := srv.stop(); err != nil {
				fmt.Printf("aplusd exit: %v\n", err)
			}
		}
		cls, srv = nil, nil
	}
	defer stop()
	var setups, peaks []float64
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			rss, err := peakRSSMB(srv.pid())
			if err != nil {
				return err
			}
			peaks = append(peaks, rss)
		}
		stop()
		start := time.Now()
		if srv, err = startServer(c.aplusd); err != nil {
			return err
		}
		if cls, err = dial(srv, servedClients); err != nil {
			return err
		}
		if err := load(cls[0], g); err != nil {
			return fmt.Errorf("wire load: %w", err)
		}
		// Warm-up: the first reads build the indexes and publish the
		// first snapshot on every shard.
		for i := 0; i < 8; i++ {
			_, err := cls[i%servedClients].Count(ctx, mrAnchored(alpha, i%2, i))
			res.op(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	release()
	sst, err := cls[0].Stats()
	if err != nil {
		return err
	}
	var indexBytes int64
	for _, st := range sst.PerShard {
		indexBytes += st.PrimaryLevelBytes + st.PrimaryIDListBytes + st.SecondaryIndexBytes
	}

	// Each connection draws its own seeded stream of (query, anchor) pairs.
	type pick struct{ which, k int }
	rngs := make([]*rand.Rand, servedClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(c.seed*servedClients + int64(i)))
	}
	next := func(w int) pick { return pick{rngs[w].Intn(2), rngs[w].Intn(nv)} }
	// checked holds each connection's first responses, with the count the
	// server returned in want.
	checked := make([][]request, servedClients)
	run := func(d time.Duration, tr *tracer) ([]sample, []window) {
		ls := make([]lats, servedClients)
		reqs := make([]int64, servedClients)
		start := time.Now()
		closedLoop(servedClients, d, func(w int) {
			p := next(w)
			q := mrAnchored(alpha, p.which, p.k)
			reqs[w]++
			var end func() time.Duration
			if tr != nil {
				end, _ = tr.begin("client.count", 0, reqs[w]*servedClients+int64(w))
			}
			t := time.Now()
			n, err := cls[w].Count(ctx, q)
			ls[w].add(t, err)
			if end != nil {
				end()
			}
			if err == nil && len(checked[w]) < servedChecked {
				checked[w] = append(checked[w], request{q, n})
			}
		})
		all := merge(ls, res)
		return all, chunked(all, start, windowsPerRun)
	}
	verify := func() {
		for _, rs := range checked {
			for _, r := range rs {
				n, err := ref.CountCtx(ctx, r.text)
				res.op(err)
				if err == nil && r.want != n {
					res.fail("served %q counted %d, embedded %d", r.text, r.want, n)
				}
			}
		}
	}

	if !c.trace {
		reads, ws := run(c.dur, nil)
		verify()
		reportReads(res, reads, ws, 0.95)
		rss, err := peakRSSMB(srv.pid())
		if err != nil {
			return err
		}
		// One aplusd's peak lands on 28, 32 or 37 MB depending on when its
		// collector ran during the load; the mean over every set-up's
		// process is what a run can report steadily.
		reportSetup(res, setups, indexBytes, mean(append(peaks, rss)))
		return nil
	}

	tr := newTracer()
	var ls layerStats
	before, err := cls[0].Stats()
	if err != nil {
		return err
	}
	reads, ws := run(c.dur/2, nil)
	after, err := cls[0].Stats()
	if err != nil {
		return err
	}
	ls.reads = int64(len(reads))
	ls.planHits = after.Aggregate.PlanCacheHits - before.Aggregate.PlanCacheHits
	ls.planMisses = after.Aggregate.PlanCacheMisses - before.Aggregate.PlanCacheMisses
	ls.untracedRPS = rate(reads, ws)
	reads, ws = run(c.dur/2, tr)
	ls.tracedRPS = rate(reads, ws)
	verify()

	// The layer replay is the start of the first connection's stream.
	var reqs []request
	rng := rand.New(rand.NewSource(c.seed * servedClients))
	for len(reqs) < servedReplay {
		q := mrAnchored(alpha, rng.Intn(2), rng.Intn(nv))
		n, err := ref.CountCtx(ctx, q)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{q, n})
	}
	if err := pingProbe(c, tr, res, srv); err != nil {
		return err
	}
	stop()
	// A fresh embedded database, so its plan cache is as cold for these
	// texts as the server's shards were.
	emb, err := memDB(g)
	if err != nil {
		return err
	}
	defer emb.Close()
	replayCounts(tr, res, "aplus.count", reqs, func(q string) (int64, error) { return emb.CountCtx(ctx, q) })
	if err := replayLayers(tr, res, followGraph(), runtime.GOMAXPROCS(0), nil, []viewBuild{viewVPt, viewEPt}, reqs); err != nil {
		return err
	}
	if err := clusterReplay(tr, res, g, nil, reqs); err != nil {
		return err
	}
	commitProbe(tr, res, emb, c.seed)
	ls.foldStats(emb.Stats())
	if err := durableProbe(c, tr, res, &ls, g); err != nil {
		return err
	}
	reportLayers(res, tr, &ls)
	return finishTrace(tr, c.work, "served", c.seed)
}

// servedReplay is the number of requests the traced run replays layer by
// layer.
const servedReplay = 200
