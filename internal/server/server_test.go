package server

// End-to-end tests over a real TCP loopback: a shard.Cluster behind a
// Server, driven by the wire client. The bar is behavioral parity with the
// embedded API — identical counts and metrics, the same errors.Is-matchable
// sentinels for governance failures, mid-stream cancellation that drains
// every shard, and typed property round-trips.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/client"
	"github.com/aplusdb/aplus/internal/proto"
	"github.com/aplusdb/aplus/internal/shard"
)

const (
	pathQ     = "MATCH a-[e]->b, b-[f]->c"
	triangleQ = "MATCH a1-[e1]->a2-[e2]->a3, a3-[e3]->a1"
)

type writer interface {
	AddVertex(label string, props aplus.Props) (aplus.VertexID, error)
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
}

// seed writes the same deterministic graph through any write path.
func seed(t *testing.T, w writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.AddVertex("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 5} {
			if _, err := w.AddEdge(aplus.VertexID(i), aplus.VertexID((i+d)%n), "K", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// startServer brings up a cluster + server + connected client on loopback.
func startServer(t *testing.T, copt shard.Options, sopt Options) (*shard.Cluster, *Server, *client.Client) {
	t.Helper()
	c, err := shard.New(copt)
	if err != nil {
		t.Fatal(err)
	}
	sopt.Addr = "127.0.0.1:0"
	srv := New(c, sopt)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		c.Close()
	})
	return c, srv, cl
}

func TestServedParityWithEmbedded(t *testing.T) {
	_, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	if cl.NumShards() != 2 {
		t.Fatalf("handshake shards = %d, want 2", cl.NumShards())
	}
	// Seed through the wire so the remote write path is what's under test.
	seed(t, cl, 30)
	ref := aplus.New()
	seed(t, refWriter{ref}, 30)

	for _, q := range []string{pathQ, triangleQ} {
		want, wantM, err := ref.CountProfiledCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: served count %d, embedded %d", q, got, want)
		}
		gotN, gotM, err := cl.CountProfiled(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != want || gotM.ICost != wantM.ICost || gotM.PredEvals != wantM.PredEvals {
			t.Fatalf("%s: served profile (%d, %+v), embedded (%d, %+v)", q, gotN, gotM, want, wantM)
		}
	}

	// Row parity: same multiset of bindings, shard order notwithstanding.
	var remote []string
	res, err := cl.Query(context.Background(), pathQ, 0, func(r proto.Row) bool {
		remote = append(remote, rowKeyWire(r))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var local []string
	if err := ref.Query(pathQ, func(r aplus.Row) bool {
		local = append(local, rowKeyLocal(r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(remote)
	sort.Strings(local)
	if len(remote) != len(local) || int64(len(remote)) != res.Rows {
		t.Fatalf("row counts: remote %d (res %d), local %d", len(remote), res.Rows, len(local))
	}
	for i := range remote {
		if remote[i] != local[i] {
			t.Fatalf("row %d: remote %s, local %s", i, remote[i], local[i])
		}
	}
}

// TestServedAggregateParity asserts the aggregate verb round-trips: every
// function served over the wire matches the embedded DB bit for bit, and a
// bad function name maps to the bad-request error.
func TestServedAggregateParity(t *testing.T) {
	_, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	seedProps := func(w writer) {
		for i := 0; i < 30; i++ {
			if _, err := w.AddVertex("P", aplus.Props{"x": i*3 - 10}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30; i++ {
			for _, d := range []int{1, 2, 5} {
				if _, err := w.AddEdge(aplus.VertexID(i), aplus.VertexID((i+d)%30), "K", nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	seedProps(cl)
	ref := aplus.New()
	seedProps(refWriter{ref})

	for _, fn := range []aplus.AggFunc{aplus.AggCount, aplus.AggSum, aplus.AggMin, aplus.AggMax} {
		want, wantM, err := ref.AggregateLimited(context.Background(), pathQ, fn, "c", "x", aplus.QueryLimits{})
		if err != nil {
			t.Fatal(err)
		}
		got, m, err := cl.Aggregate(context.Background(), pathQ, fn, "c", "x", aplus.QueryLimits{})
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if got != want {
			t.Errorf("%s: served %+v, embedded %+v", fn, got, want)
		}
		if m.ICost != wantM.ICost || m.PredEvals != wantM.PredEvals {
			t.Errorf("%s: served metrics (%d,%d), embedded (%d,%d)", fn, m.ICost, m.PredEvals, wantM.ICost, wantM.PredEvals)
		}
	}
	if _, _, err := cl.Aggregate(context.Background(), pathQ, "median", "c", "x", aplus.QueryLimits{}); err == nil {
		t.Error("unknown aggregate function did not error over the wire")
	}
}

// refWriter adapts *aplus.DB to the writer interface (method sets match,
// but seed takes the interface).
type refWriter struct{ db *aplus.DB }

func (w refWriter) AddVertex(l string, p aplus.Props) (aplus.VertexID, error) {
	return w.db.AddVertex(l, p)
}

func (w refWriter) AddEdge(s, d aplus.VertexID, l string, p aplus.Props) (aplus.EdgeID, error) {
	return w.db.AddEdge(s, d, l, p)
}

func rowKeyWire(r proto.Row) string {
	return bindKey(func(emit func(string, uint64)) {
		for k, v := range r.V {
			emit("v:"+k, uint64(v))
		}
		for k, e := range r.E {
			emit("e:"+k, uint64(e))
		}
	})
}

func rowKeyLocal(r aplus.Row) string {
	return bindKey(func(emit func(string, uint64)) {
		for k, v := range r.Vertices {
			emit("v:"+k, uint64(v))
		}
		for k, e := range r.Edges {
			emit("e:"+k, uint64(e))
		}
	})
}

func bindKey(visit func(emit func(string, uint64))) string {
	var parts []string
	visit(func(k string, id uint64) { parts = append(parts, fmt.Sprintf("%s=%d", k, id)) })
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func TestServedTypedPropsRoundTrip(t *testing.T) {
	c, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	v, err := cl.AddVertex("P", aplus.Props{"name": "ada", "age": int64(36), "score": 2.5, "ok": true})
	if err != nil {
		t.Fatal(err)
	}
	// JSON must not have coerced the int to float64 on its way through.
	if got := c.VertexProp(v, "age"); got != int64(36) {
		t.Fatalf("age round-tripped as %T(%v), want int64(36)", got, got)
	}
	if got := c.VertexProp(v, "score"); got != 2.5 {
		t.Fatalf("score = %v", got)
	}
	if got := c.VertexProp(v, "name"); got != "ada" {
		t.Fatalf("name = %v", got)
	}
	if got := c.VertexProp(v, "ok"); got != true {
		t.Fatalf("ok = %v", got)
	}
}

func TestServedCancelMidStream(t *testing.T) {
	c, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	// A dense hub produces a long row stream to cancel into.
	hub, err := cl.AddVertex("H", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := cl.AddVertex("P", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.AddEdge(hub, v, "K", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.AddEdge(v, hub, "K", nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows int
	_, err = cl.Query(ctx, pathQ, 0, func(proto.Row) bool {
		rows++
		if rows == 10 {
			cancel()
			// Give the cancel a moment to land server-side; the ~40k-row
			// stream is far larger than the socket buffers, so the query
			// cannot have completed already.
			time.Sleep(50 * time.Millisecond)
		}
		return true
	})
	if !errors.Is(err, aplus.ErrQueryCanceled) {
		t.Fatalf("err = %v, want ErrQueryCanceled", err)
	}
	// Every shard must drain: no query may stay in flight after the wire
	// round-trip reports cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inFlight := int64(0)
		for i := 0; i < c.NumShards(); i++ {
			inFlight += c.DB(i).Stats().QueriesInFlight
		}
		if inFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d queries still in flight after cancel", inFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The connection survives cancellation: the next request works.
	if _, err := cl.Count(context.Background(), pathQ); err != nil {
		t.Fatalf("count after cancel: %v", err)
	}
}

// TestServedPipelineOverflowHangsUp pins the bound on lines pipelined
// during a stream: a client that sends maxPending+1 requests while its
// query streams, and reads none of the rows, is dropped, and the query it
// left behind releases every shard.
func TestServedPipelineOverflowHangsUp(t *testing.T) {
	c, srv, _ := startServer(t, shard.Options{Shards: 2}, Options{})
	// A hub with 1000 two-way spokes: pathQ streams ~1M rows, far more than
	// the socket buffers hold, so the unread stream stalls mid-query.
	if err := c.Batch(func(b *shard.Batch) error {
		hub, err := b.AddVertex("H", nil)
		if err != nil {
			return err
		}
		for i := 0; i < 1000; i++ {
			v, err := b.AddVertex("P", nil)
			if err != nil {
				return err
			}
			if _, err := b.AddEdge(hub, v, "K", nil); err != nil {
				return err
			}
			if _, err := b.AddEdge(v, hub, "K", nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	inFlight := func() int64 {
		var n int64
		for i := 0; i < c.NumShards(); i++ {
			n += c.DB(i).Stats().QueriesInFlight
		}
		return n
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "query {\"q\":%q}\n", pathQ); err != nil {
		t.Fatal(err)
	}
	// Read nothing: the stream fills the socket buffers and its row writer
	// stalls. Then pipeline past the bound.
	time.Sleep(time.Second)
	if inFlight() == 0 {
		t.Fatal("query finished without its rows being read")
	}
	if _, err := conn.Write([]byte(strings.Repeat("health\n", maxPending+1))); err != nil {
		t.Fatal(err)
	}
	// Still reading nothing, the query must end on every shard.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d queries still in flight after the overflow", inFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The server hung up: draining what it sent ends in EOF or a reset,
	// never in the read deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64<<10)
	for {
		if _, err := conn.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("connection still open after pipelining past the bound")
			}
			break
		}
	}
}

func TestServedEarlyStopAndRowCap(t *testing.T) {
	_, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	seed(t, cl, 30)

	// fn returning false stops the stream without error.
	var rows int64
	res, err := cl.Query(context.Background(), pathQ, 0, func(proto.Row) bool {
		rows++
		return rows < 3
	})
	if err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if res.Rows != 3 {
		t.Fatalf("early stop rows = %d, want 3", res.Rows)
	}

	// A server-side cap truncates cleanly and says so.
	res, err = cl.Query(context.Background(), pathQ, 5, func(proto.Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 5 || !res.Truncated {
		t.Fatalf("cap: rows=%d truncated=%v, want 5/true", res.Rows, res.Truncated)
	}

	// The stream stays in sync afterwards.
	if _, err := cl.Count(context.Background(), pathQ); err != nil {
		t.Fatalf("count after capped query: %v", err)
	}
}

func TestServedGovernanceSentinels(t *testing.T) {
	_, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	seed(t, cl, 30)

	if _, err := cl.CountLimited(context.Background(), triangleQ, aplus.QueryLimits{MaxICost: 1}); !errors.Is(err, aplus.ErrBudgetExceeded) {
		t.Fatalf("budget err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := cl.QueryLimited(context.Background(), pathQ, aplus.QueryLimits{MaxRows: 2}, 0, func(proto.Row) bool { return true }); !errors.Is(err, aplus.ErrBudgetExceeded) {
		t.Fatalf("row budget err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := cl.Count(context.Background(), "MATCH not valid cypher ("); err == nil {
		t.Fatal("parse error did not propagate")
	}
	// The connection survives every failure mode above.
	if _, err := cl.Count(context.Background(), pathQ); err != nil {
		t.Fatalf("count after errors: %v", err)
	}
}

func TestServedBackpressure(t *testing.T) {
	_, _, cl := startServer(t,
		shard.Options{Shards: 2, MergeThreshold: 1 << 20},
		Options{MaxPendingWrites: 6},
	)
	// Edge writes only flow through the fold-pending delta once a first
	// snapshot exists (the load phase builds the frozen graph directly),
	// so seed vertices and publish a snapshot with one read first.
	for i := 0; i < 4; i++ {
		if _, err := cl.AddVertex("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Count(context.Background(), "MATCH a-[e]->b"); err != nil {
		t.Fatal(err)
	}
	// Each logical edge lands on both replicas, so aggregate pending
	// climbs by ~2 per AddEdge; past the threshold writes must bounce.
	var saw error
	for i := 0; i < 20; i++ {
		if _, err := cl.AddEdge(0, 1, "K", nil); err != nil {
			saw = err
			break
		}
	}
	if !errors.Is(saw, proto.ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", saw)
	}
	// Folding the backlog reopens the gate.
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddEdge(0, 1, "K", nil); err != nil {
		t.Fatalf("write after flush: %v", err)
	}
	// Reads were never gated.
	if _, err := cl.Count(context.Background(), "MATCH a-[e]->b"); err != nil {
		t.Fatal(err)
	}
}

func TestServedStatsHealthExplainExec(t *testing.T) {
	_, _, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	seed(t, cl, 20)
	if _, err := cl.Count(context.Background(), pathQ); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats shards: %d/%d", st.Shards, len(st.PerShard))
	}
	if st.Aggregate.NumVertices != 20 {
		t.Fatalf("aggregate vertices = %d", st.Aggregate.NumVertices)
	}
	if st.PerShard[0].NumVertices != 20 || st.PerShard[1].NumVertices != 20 {
		t.Fatalf("replica vertices: %d/%d", st.PerShard[0].NumVertices, st.PerShard[1].NumVertices)
	}
	h, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Degraded || h.Diverged {
		t.Fatalf("health: %+v", h)
	}
	if err := cl.Exec("CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX AS FW PARTITION BY eadj.label"); err != nil {
		t.Fatal(err)
	}
	plan, err := cl.Explain(pathQ)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}
	// DDL applied on every replica.
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i, per := range st.PerShard {
		if per.SecondaryIndexBytes == 0 {
			t.Fatalf("shard %d has no secondary index after broadcast DDL", i)
		}
	}
}

func TestServedConcurrentClients(t *testing.T) {
	_, srv, cl := startServer(t, shard.Options{Shards: 2}, Options{})
	seed(t, cl, 30)
	want, err := cl.Count(context.Background(), pathQ)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Several goroutines share one client (serialized internally)...
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got, err := cl.Count(context.Background(), pathQ); err != nil || got != want {
					errs <- fmt.Errorf("shared client: %d, %v", got, err)
					return
				}
			}
		}()
	}
	// ...while separate connections run queries and writes concurrently.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own, err := client.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer own.Close()
			for i := 0; i < 5; i++ {
				if _, err := own.Query(context.Background(), pathQ, 10, func(proto.Row) bool { return true }); err != nil {
					errs <- fmt.Errorf("client %d query: %w", g, err)
					return
				}
				if _, err := own.AddVertex("W", nil); err != nil {
					errs <- fmt.Errorf("client %d write: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServedDurableShutdownAndReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := shard.New(shard.Options{Shards: 2, Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c, Options{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	seed(t, cl, 20)
	want, err := cl.Count(context.Background(), pathQ)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same directory and serve again: recovery must preserve
	// the graph on every replica.
	c2, err := shard.New(shard.Options{Shards: 2, Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv2 := New(c2, Options{Addr: "127.0.0.1:0"})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2, err := client.Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	got, err := cl2.Count(context.Background(), pathQ)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count after reopen: %d, want %d", got, want)
	}
	// And the reopened cluster still accepts writes through the server.
	if _, err := cl2.AddVertex("P", nil); err != nil {
		t.Fatal(err)
	}
}

func TestServedProtocolRobustness(t *testing.T) {
	_, srv, _ := startServer(t, shard.Options{Shards: 1}, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A stray cancel gets no response; the next verb still answers —
	// proving the stream cannot desync.
	if _, err := conn.Write([]byte("cancel\nbogus {}\nhealth\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var got string
	deadline := time.Now().Add(5 * time.Second)
	for strings.Count(got, "\n") < 2 {
		conn.SetReadDeadline(deadline)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got += string(buf[:n])
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d response lines: %q", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "err ") || !strings.Contains(lines[0], proto.CodeBadRequest) {
		t.Fatalf("bogus verb answered %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ok ") {
		t.Fatalf("health after bogus verb answered %q", lines[1])
	}
}
