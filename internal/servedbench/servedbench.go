// Package servedbench measures the serving layer end to end: the latency
// of a remote (aplusd wire protocol over TCP loopback) triangle count
// against the same count on an embedded database holding identical data,
// and the compiled-plan cache's cold-vs-warm effect on the served path.
// Before timing anything it asserts parity — the served cluster and the
// embedded reference must agree on counts and summed i-cost, or the
// numbers mean nothing.
//
// Like govbench and the fault sweep, it lives outside internal/harness
// because it drives the public aplus package; its rows are excluded from
// "-exp all" and stored-baseline gating (loopback RTT and scheduler noise
// dominate, so they are advisory).
package servedbench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/client"
	"github.com/aplusdb/aplus/internal/harness"
	"github.com/aplusdb/aplus/internal/server"
	"github.com/aplusdb/aplus/internal/shard"
)

const triangleQ = "MATCH a1-[e1]->a2-[e2]->a3, a3-[e3]->a1"

// servedShards is the cluster size under test: the smallest fan-out that
// exercises cross-shard merge and sibling cancellation.
const servedShards = 2

// Served runs the serving-layer experiment and returns advisory rows.
func Served(o harness.Options) []harness.Row {
	w := io.Writer(io.Discard)
	if o.Out != nil {
		w = o.Out
	}
	scale := o.Scale
	if scale <= 0 {
		scale = 1.0
	}
	n := int(1200 * scale)
	if n < 64 {
		n = 64
	}
	fmt.Fprintf(w, "\n=== Served vs embedded: triangle, %d shards, %d vertices ===\n", servedShards, n)

	ref := aplus.New()
	seedGraph(ref, n)

	cluster, err := shard.New(shard.Options{Shards: servedShards, Parallelism: o.Workers})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	seedGraph(cluster, n)

	srv := server.New(cluster, server.Options{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		panic(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	ctx := context.Background()

	// Load-phase writes skip the index build, so the shards' first read
	// also builds their primary indexes. Pay that with a different text
	// before anything is timed.
	if _, err := cl.Count(ctx, "MATCH a1-[e1]->a2"); err != nil {
		panic(err)
	}

	// Parity gate: identical data, identical counts and summed metrics.
	wantN, wantM, err := ref.CountProfiledCtx(ctx, triangleQ)
	if err != nil {
		panic(err)
	}
	gotN, gotM, err := cl.CountProfiled(ctx, triangleQ)
	if err != nil {
		panic(err)
	}
	if gotN != wantN || gotM.ICost != wantM.ICost {
		panic(fmt.Sprintf("served/embedded parity: served %d (i-cost %d), embedded %d (i-cost %d)",
			gotN, gotM.ICost, wantN, wantM.ICost))
	}

	// Cold runs on the served path: each text renames the triangle's
	// variables, so it misses every shard's plan cache and compiles afresh
	// while matching the same triangles.
	const reps = 15
	coldLat := make([]time.Duration, reps)
	for i := range coldLat {
		q := fmt.Sprintf("MATCH c%[1]d-[f1]->d%[1]d-[f2]->h%[1]d, h%[1]d-[f3]->c%[1]d", i)
		start := time.Now()
		if got, err := cl.Count(ctx, q); err != nil || got != wantN {
			panic(fmt.Sprintf("served cold rep: n=%d err=%v", got, err))
		}
		coldLat[i] = time.Since(start)
	}
	cold := minOf(coldLat)

	// Interleave warm reps rep by rep, like the governance overhead bench,
	// so noise hits both distributions alike.
	embLat := make([]time.Duration, reps)
	srvLat := make([]time.Duration, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if got, err := ref.CountCtx(ctx, triangleQ); err != nil || got != wantN {
			panic(fmt.Sprintf("embedded rep: n=%d err=%v", got, err))
		}
		embLat[i] = time.Since(start)
		start = time.Now()
		if got, err := cl.Count(ctx, triangleQ); err != nil || got != wantN {
			panic(fmt.Sprintf("served rep: n=%d err=%v", got, err))
		}
		srvLat[i] = time.Since(start)
	}
	emb, srvMin := minOf(embLat), minOf(srvLat)
	fmt.Fprintf(w, "embedded %12v   served %12v   wire+fanout overhead %+.2fx\n",
		emb, srvMin, srvMin.Seconds()/emb.Seconds()-1)

	// Plan-cache effect on the served path: cold runs compiled on every
	// shard; warm runs must be all hits.
	st, err := cl.Stats()
	if err != nil {
		panic(err)
	}
	if st.Aggregate.PlanCacheHits == 0 {
		panic("served warm runs recorded no plan-cache hits")
	}
	fmt.Fprintf(w, "plan cache: cold %12v   warm %12v   speedup %.2fx   (aggregate hits=%d misses=%d)\n",
		cold, srvMin, cold.Seconds()/srvMin.Seconds(),
		st.Aggregate.PlanCacheHits, st.Aggregate.PlanCacheMisses)

	return []harness.Row{
		{Table: "served", Dataset: "ring", Config: "embedded", Query: "triangle", Seconds: emb.Seconds(), Count: wantN, ICost: wantM.ICost},
		{Table: "served", Dataset: "ring", Config: "served", Query: "triangle", Seconds: srvMin.Seconds(), Count: wantN, ICost: gotM.ICost},
		{Table: "served", Dataset: "ring", Config: "plancache-cold", Query: "triangle", Seconds: cold.Seconds(), Count: wantN},
		{Table: "served", Dataset: "ring", Config: "plancache-warm", Query: "triangle", Seconds: srvMin.Seconds(), Count: wantN},
	}
}

type writer interface {
	AddVertex(label string, props aplus.Props) (aplus.VertexID, error)
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
}

// seedGraph writes the same deterministic ring-with-chords graph through
// any write path (embedded DB or cluster), so replicas and the reference
// hold bit-identical data.
func seedGraph(g writer, n int) {
	for i := 0; i < n; i++ {
		if _, err := g.AddVertex("P", nil); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 3, 7} {
			if _, err := g.AddEdge(aplus.VertexID(i), aplus.VertexID((i+d)%n), "K", nil); err != nil {
				panic(err)
			}
		}
	}
}

func minOf(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[0]
}
