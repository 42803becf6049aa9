// Package shard implements the serving layer's cluster: N aplus.DB
// replicas hash-partitioned on vertex ID, with writes routed through the
// owning shard's WAL first and queries fanned out across all shards under
// one governed context.
//
// # Replication model
//
// Every shard holds a full replica of the data, applied in an identical
// order, so all shards assign identical dense vertex/edge IDs, build
// identical frozen index stores, and compile identical plans. What is
// partitioned is query-time *root ownership*: shard i's DB carries
// aplus.ShardSpec{i, N}, restricting every plan's root scan to the
// vertices (edge sources) hashing to i. A fan-out across all N shards
// therefore covers each root entry exactly once, and per-shard counts,
// i-cost, and PredEvals sum bit-identically to a single unsharded DB —
// the same partition-of-the-root invariant that makes morsel parallelism
// deterministic, lifted one level up. Full replication also means a
// multi-hop pipeline never needs remote adjacency: each shard's portion
// of the query runs entirely locally.
//
// # Write routing and divergence
//
// Writes commit on the owning shard first — the owner's WAL append is the
// cluster's commit point — and then mirror to the remaining replicas in
// shard order. A failure on the owner aborts cleanly (nothing was
// mirrored); a failure or ID mismatch while mirroring leaves replicas
// diverged, so the cluster poisons itself for writes (ErrClusterDiverged,
// carrying the cause) while reads keep serving — the same asymmetric
// fail-stop posture as the WAL's degraded mode.
//
// # Governance propagation
//
// Fan-out reads share one cancelable context derived from the caller's:
// deadlines, budgets (per shard), and cancellation reach every shard, the
// first shard error cancels its siblings (first-error-wins), and a trip
// surfaces as the same errors.Is-matchable sentinels the embedded API
// uses. Per-shard admission gates (MaxConcurrentQueries) and all
// governance counters keep working per shard and are aggregated by Stats.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/exec"
)

// ErrClusterDiverged is returned by every write entry point after a mirror
// failure left the replicas inconsistent. Reads keep serving. Like WAL
// degradation, only reopening the cluster (recovering every shard from its
// durable state) clears it.
var ErrClusterDiverged = errors.New("shard: cluster replicas diverged; writes disabled")

// metaFile records the shard count of a durable cluster directory.
const metaFile = "cluster.json"

type meta struct {
	Shards int `json:"shards"`
}

// Options configure a cluster. Every per-DB knob is applied uniformly to
// all shards.
type Options struct {
	// Shards is the number of replicas/partitions (0 or 1 = single shard).
	Shards int
	// Dir, when non-empty, makes every shard durable under Dir/shard-NNN
	// with a cluster.json recording the shard count (validated on reopen —
	// resharding an existing directory is refused).
	Dir string
	// NoFsync and MergeThreshold are passed to each shard's OpenOptions
	// (durable clusters only; MergeThreshold also applies in-memory).
	NoFsync        bool
	MergeThreshold int

	// Per-shard query knobs, mirroring the aplus.DB fields.
	Parallelism          int
	MorselSize           int
	PlanCacheSize        int
	Limits               aplus.QueryLimits
	QueryTimeout         time.Duration
	MaxConcurrentQueries int
	AdmissionPolicy      aplus.AdmissionPolicy
	SlowQueryThreshold   time.Duration

	// SlowQueryLog, when set alongside a positive SlowQueryThreshold,
	// receives every shard's slow-query records (each record carries the
	// shard's work, so one logger may serve the whole cluster).
	SlowQueryLog *slog.Logger
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

// Cluster owns N replica shards. All methods are safe for concurrent use;
// writes serialize on an internal mutex (they must mirror in a fixed
// order), reads fan out lock-free.
type Cluster struct {
	dbs []*aplus.DB

	// wmu serializes writes across shards so every replica applies the
	// same ops in the same order (the replication invariant).
	wmu sync.Mutex
	// nextV predicts the next vertex ID (dense allocation) for ownership
	// routing of AddVertex; guarded by wmu.
	nextV aplus.VertexID

	// divergedCause is non-nil once a mirror failure poisoned writes.
	mu            sync.Mutex
	divergedCause error
}

// New creates (or, when Options.Dir exists, reopens) a cluster.
func New(o Options) (*Cluster, error) {
	n := o.shards()
	c := &Cluster{dbs: make([]*aplus.DB, 0, n)}
	if o.Dir != "" {
		if err := prepareDir(o.Dir, n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		var db *aplus.DB
		var err error
		if o.Dir != "" {
			db, err = aplus.OpenOptions{
				MergeThreshold:       o.MergeThreshold,
				NoFsync:              o.NoFsync,
				QueryTimeout:         o.QueryTimeout,
				MaxConcurrentQueries: o.MaxConcurrentQueries,
				AdmissionPolicy:      o.AdmissionPolicy,
				SlowQueryThreshold:   o.SlowQueryThreshold,
			}.Open(filepath.Join(o.Dir, shardDirName(i)))
		} else {
			db = aplus.New()
			db.MergeThreshold = o.MergeThreshold
			db.QueryTimeout = o.QueryTimeout
			db.MaxConcurrentQueries = o.MaxConcurrentQueries
			db.AdmissionPolicy = o.AdmissionPolicy
			db.SlowQueryThreshold = o.SlowQueryThreshold
		}
		if err != nil {
			c.closeAll()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		db.Shard = aplus.ShardSpec{Index: i, Of: n}
		db.Parallelism = o.Parallelism
		db.MorselSize = o.MorselSize
		db.PlanCacheSize = o.PlanCacheSize
		db.Limits = o.Limits
		db.SlowQueryLog = o.SlowQueryLog
		c.dbs = append(c.dbs, db)
	}
	// Replicas must agree on recovered state. Epochs are nondeterministic
	// (background folds), so compare the logical graph shape instead.
	st0 := c.dbs[0].Stats()
	for i := 1; i < n; i++ {
		st := c.dbs[i].Stats()
		if st.NumVertices != st0.NumVertices || st.NumEdges != st0.NumEdges {
			c.closeAll()
			return nil, fmt.Errorf(
				"shard: replicas diverged on open: shard 0 has %dv/%de, shard %d has %dv/%de",
				st0.NumVertices, st0.NumEdges, i, st.NumVertices, st.NumEdges)
		}
	}
	c.nextV = aplus.VertexID(st0.NumVertices)
	return c, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// prepareDir creates or validates a durable cluster directory.
func prepareDir(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, metaFile)
	data, err := os.ReadFile(path)
	if err == nil {
		var m meta
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("shard: corrupt %s: %w", metaFile, err)
		}
		if m.Shards != n {
			return fmt.Errorf("shard: directory %s holds %d shards, asked to open %d (resharding is not supported)", dir, m.Shards, n)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, _ = json.Marshal(meta{Shards: n})
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.dbs) }

// DB exposes shard i's embedded database (tests and diagnostics).
func (c *Cluster) DB(i int) *aplus.DB { return c.dbs[i] }

// Close closes every shard, returning the first error.
func (c *Cluster) Close() error { return c.closeAll() }

func (c *Cluster) closeAll() error {
	var first error
	for _, db := range c.dbs {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// poison marks the cluster diverged for writes.
func (c *Cluster) poison(cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.divergedCause == nil {
		c.divergedCause = cause
	}
}

// Diverged reports whether writes are poisoned, and why.
func (c *Cluster) Diverged() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.divergedCause != nil, c.divergedCause
}

func (c *Cluster) writeHealthy() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.divergedCause != nil {
		return fmt.Errorf("%w: %v", ErrClusterDiverged, c.divergedCause)
	}
	return nil
}

// commitOrder yields shard indices with the owner first: the owner's WAL
// append is the commit point, the rest are mirrors.
func (c *Cluster) commitOrder(owner int) []int {
	ord := make([]int, 0, len(c.dbs))
	ord = append(ord, owner)
	for i := range c.dbs {
		if i != owner {
			ord = append(ord, i)
		}
	}
	return ord
}

// replicate applies one write to every shard, owner first. A failure on
// the owner aborts with nothing mirrored; a failure (or an ID diverging
// from the owner's) on a mirror poisons the cluster.
func replicate[T comparable](c *Cluster, owner int, op func(*aplus.DB) (T, error)) (T, error) {
	var zero T
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeHealthy(); err != nil {
		return zero, err
	}
	var want T
	for k, si := range c.commitOrder(owner) {
		got, err := op(c.dbs[si])
		if k == 0 {
			if err != nil {
				return zero, err // owner failed: clean abort, nothing mirrored
			}
			want = got
			continue
		}
		if err != nil {
			err = fmt.Errorf("mirror to shard %d failed after owner %d committed: %w", si, owner, err)
			c.poison(err)
			return zero, fmt.Errorf("%w: %v", ErrClusterDiverged, err)
		}
		if got != want {
			err = fmt.Errorf("mirror to shard %d assigned %v, owner %d assigned %v", si, got, owner, want)
			c.poison(err)
			return zero, fmt.Errorf("%w: %v", ErrClusterDiverged, err)
		}
	}
	return want, nil
}

// AddVertex adds a vertex to every replica, committing on the owner of the
// (predicted, densely allocated) new vertex ID first.
func (c *Cluster) AddVertex(label string, props aplus.Props) (aplus.VertexID, error) {
	c.wmu.Lock()
	owner := exec.Owner(c.nextV, len(c.dbs))
	c.wmu.Unlock()
	id, err := replicate(c, owner, func(db *aplus.DB) (aplus.VertexID, error) {
		return db.AddVertex(label, props)
	})
	if err == nil {
		c.wmu.Lock()
		if id >= c.nextV {
			c.nextV = id + 1
		}
		c.wmu.Unlock()
	}
	return id, err
}

// AddEdge adds an edge to every replica, committing on the source vertex's
// owner first (edge-rooted scans partition on the source too).
func (c *Cluster) AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error) {
	return replicate(c, exec.Owner(src, len(c.dbs)), func(db *aplus.DB) (aplus.EdgeID, error) {
		return db.AddEdge(src, dst, label, props)
	})
}

// DeleteEdge tombstones an edge on every replica. Routing hashes the edge
// ID (the source vertex is not cheaply known here; any deterministic owner
// works — the commit point just has to be a single fixed shard).
func (c *Cluster) DeleteEdge(e aplus.EdgeID) error {
	_, err := replicate(c, exec.Owner(aplus.VertexID(e), len(c.dbs)), func(db *aplus.DB) (struct{}, error) {
		return struct{}{}, db.DeleteEdge(e)
	})
	return err
}

// batchOp is one recorded Batch operation, replayed verbatim on mirrors.
type batchOp struct {
	kind     byte // 'v', 'e', 'd'
	label    string
	props    aplus.Props
	src, dst aplus.VertexID
	edge     aplus.EdgeID
	wantV    aplus.VertexID
	wantE    aplus.EdgeID
}

// Batch stages writes on shard 0 and records them; on commit the script
// replays on every other replica with the lead shard's assigned IDs
// verified. Batches commit on shard 0 regardless of ownership: a batch
// spans many owners, and the replication invariant only needs one fixed
// commit point.
type Batch struct {
	b   *aplus.Batch
	ops []batchOp
}

// AddVertex stages a vertex on the lead shard and records it for replay.
func (b *Batch) AddVertex(label string, props aplus.Props) (aplus.VertexID, error) {
	v, err := b.b.AddVertex(label, props)
	if err != nil {
		return v, err
	}
	b.ops = append(b.ops, batchOp{kind: 'v', label: label, props: props, wantV: v})
	return v, nil
}

// AddEdge stages an edge on the lead shard and records it for replay.
func (b *Batch) AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error) {
	e, err := b.b.AddEdge(src, dst, label, props)
	if err != nil {
		return e, err
	}
	b.ops = append(b.ops, batchOp{kind: 'e', label: label, props: props, src: src, dst: dst, wantE: e})
	return e, nil
}

// DeleteEdge stages an edge deletion on the lead shard and records it.
func (b *Batch) DeleteEdge(e aplus.EdgeID) error {
	if err := b.b.DeleteEdge(e); err != nil {
		return err
	}
	b.ops = append(b.ops, batchOp{kind: 'd', edge: e})
	return nil
}

// Batch runs fn against a staged batch and commits it atomically on every
// replica (lead shard first). When fn errors, nothing commits anywhere.
func (c *Cluster) Batch(fn func(*Batch) error) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeHealthy(); err != nil {
		return err
	}
	var script []batchOp
	err := c.dbs[0].Batch(func(ab *aplus.Batch) error {
		cb := &Batch{b: ab}
		if err := fn(cb); err != nil {
			return err
		}
		script = cb.ops
		return nil
	})
	if err != nil {
		return err
	}
	for si := 1; si < len(c.dbs); si++ {
		rerr := c.dbs[si].Batch(func(ab *aplus.Batch) error {
			for _, op := range script {
				switch op.kind {
				case 'v':
					v, err := ab.AddVertex(op.label, op.props)
					if err != nil {
						return err
					}
					if v != op.wantV {
						return fmt.Errorf("replayed vertex got id %d, lead assigned %d", v, op.wantV)
					}
				case 'e':
					e, err := ab.AddEdge(op.src, op.dst, op.label, op.props)
					if err != nil {
						return err
					}
					if e != op.wantE {
						return fmt.Errorf("replayed edge got id %d, lead assigned %d", e, op.wantE)
					}
				case 'd':
					if err := ab.DeleteEdge(op.edge); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if rerr != nil {
			rerr = fmt.Errorf("batch mirror to shard %d failed after shard 0 committed: %w", si, rerr)
			c.poison(rerr)
			return fmt.Errorf("%w: %v", ErrClusterDiverged, rerr)
		}
	}
	// Track vertex allocation for AddVertex ownership routing.
	for _, op := range script {
		if op.kind == 'v' && op.wantV >= c.nextV {
			c.nextV = op.wantV + 1
		}
	}
	return nil
}

// Exec broadcasts an index DDL to every replica (shard 0 first; a shard-0
// failure aborts cleanly, a later failure poisons writes).
func (c *Cluster) Exec(ddl string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeHealthy(); err != nil {
		return err
	}
	for si := range c.dbs {
		if err := c.dbs[si].Exec(ddl); err != nil {
			if si == 0 {
				return err
			}
			err = fmt.Errorf("DDL mirror to shard %d failed after shard 0 applied: %w", si, err)
			c.poison(err)
			return fmt.Errorf("%w: %v", ErrClusterDiverged, err)
		}
	}
	return nil
}

// Flush folds pending deltas on every shard (fold failures are retried by
// each shard's merger and do not poison replication — the replicas' data
// is still identical).
func (c *Cluster) Flush() error {
	var first error
	for si, db := range c.dbs {
		if err := db.Flush(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return first
}

// VertexProp reads a vertex property from shard 0 (replicas are identical).
func (c *Cluster) VertexProp(v aplus.VertexID, key string) any { return c.dbs[0].VertexProp(v, key) }

// EdgeProp reads an edge property from shard 0.
func (c *Cluster) EdgeProp(e aplus.EdgeID, key string) any { return c.dbs[0].EdgeProp(e, key) }

// Explain returns shard 0's plan (replicas compile identical plans).
func (c *Cluster) Explain(cypher string) (string, error) { return c.dbs[0].Explain(cypher) }

// Count runs a query across all shards and returns the summed match count.
func (c *Cluster) Count(cypher string) (int64, error) {
	n, _, err := c.CountProfiledLimited(context.Background(), cypher, aplus.QueryLimits{})
	return n, err
}

// CountCtx is Count under the caller's context: cancellation and deadline
// propagate to every shard.
func (c *Cluster) CountCtx(ctx context.Context, cypher string) (int64, error) {
	n, _, err := c.CountProfiledLimited(ctx, cypher, aplus.QueryLimits{})
	return n, err
}

// CountProfiledCtx also merges per-shard metrics: ICost and PredEvals sum
// (bit-identical to an unsharded run), EstimatedICost is the plan estimate
// (identical on every replica).
func (c *Cluster) CountProfiledCtx(ctx context.Context, cypher string) (int64, aplus.Metrics, error) {
	return c.CountProfiledLimited(ctx, cypher, aplus.QueryLimits{})
}

// CountProfiledLimited is CountProfiledCtx under explicit per-shard
// resource limits (budgets bound each shard's work, as each shard runs its
// own governed execution).
func (c *Cluster) CountProfiledLimited(ctx context.Context, cypher string, limits aplus.QueryLimits) (int64, aplus.Metrics, error) {
	rs, err := fanOut(ctx, c.dbs, func(ctx context.Context, db *aplus.DB) (profiled[int64], error) {
		n, m, err := db.CountProfiledLimited(ctx, cypher, limits)
		return profiled[int64]{n, m}, err
	})
	if err != nil {
		return 0, aplus.Metrics{}, err
	}
	var total int64
	for _, r := range rs {
		total += r.v
	}
	return total, mergeMetrics(rs), nil
}

// Aggregate evaluates fn (count/sum/min/max) across all shards and merges
// the per-shard partials exactly: rows and sums add, extrema compare, and
// validity ORs, so the cluster result is bit-identical to an unsharded
// DB.Aggregate — the partition-of-the-root invariant extended to aggregate
// values. Metrics merge as in CountProfiledLimited.
func (c *Cluster) Aggregate(ctx context.Context, cypher string, fn aplus.AggFunc, variable, prop string, limits aplus.QueryLimits) (aplus.AggValue, aplus.Metrics, error) {
	rs, err := fanOut(ctx, c.dbs, func(ctx context.Context, db *aplus.DB) (profiled[aplus.AggValue], error) {
		v, m, err := db.AggregateLimited(ctx, cypher, fn, variable, prop, limits)
		return profiled[aplus.AggValue]{v, m}, err
	})
	if err != nil {
		return aplus.AggValue{}, aplus.Metrics{}, err
	}
	var total aplus.AggValue
	for _, r := range rs {
		total.Merge(fn, r.v)
	}
	return total, mergeMetrics(rs), nil
}

// ExplainAnalyze runs the query for real on every shard with per-operator
// tracing armed and returns the merged trace: counts, span counters, and
// the per-worker split (tagged with the owning shard) sum exactly as
// CountProfiledLimited's metrics do — bit-identical to an unsharded traced
// run — while wall time takes the max, since shards execute concurrently.
func (c *Cluster) ExplainAnalyze(ctx context.Context, cypher string, limits aplus.QueryLimits) (*aplus.QueryTrace, error) {
	traces, err := fanOut(ctx, c.dbs, func(ctx context.Context, db *aplus.DB) (*aplus.QueryTrace, error) {
		return db.ExplainAnalyzeLimited(ctx, cypher, limits)
	})
	if err != nil {
		return nil, err
	}
	// Merge in shard order so the worker split is deterministic.
	merged := &aplus.QueryTrace{}
	for i, t := range traces {
		merged.Merge(t, i)
	}
	return merged, nil
}

// Query streams matched rows from all shards into fn. fn is never called
// concurrently with itself; rows arrive in nondeterministic shard order.
// Returning false stops every shard. A panic in fn re-raises on the
// calling goroutine, as with the embedded API.
func (c *Cluster) Query(cypher string, fn func(aplus.Row) bool) error {
	return c.QueryLimited(context.Background(), cypher, aplus.QueryLimits{}, fn)
}

// QueryCtx is Query under the caller's context.
func (c *Cluster) QueryCtx(ctx context.Context, cypher string, fn func(aplus.Row) bool) error {
	return c.QueryLimited(ctx, cypher, aplus.QueryLimits{}, fn)
}

// QueryLimited is QueryCtx under explicit per-shard resource limits.
func (c *Cluster) QueryLimited(ctx context.Context, cypher string, limits aplus.QueryLimits, fn func(aplus.Row) bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var emitMu sync.Mutex
	stopped := false
	emit := func(r aplus.Row) bool {
		emitMu.Lock()
		defer emitMu.Unlock()
		if stopped {
			return false
		}
		if !fn(r) {
			stopped = true
			cancel()
			return false
		}
		return true
	}
	// A panicking fn re-raises on the goroutine that called the shard DB;
	// fanOut re-raises it on this caller after every shard drains,
	// preserving the embedded API's callback-panic contract.
	_, err := fanOut(ctx, c.dbs, func(ctx context.Context, db *aplus.DB) (struct{}, error) {
		return struct{}{}, db.QueryLimited(ctx, cypher, limits, emit)
	})
	if stopped && errors.Is(err, aplus.ErrQueryCanceled) {
		// The caller stopped the stream; sibling cancellations are the
		// mechanism, not an error (matching the embedded early-stop API).
		return nil
	}
	return err
}

// fanOut runs read on every shard concurrently under one cancelable
// context derived from ctx and returns the per-shard results in shard
// order. The first shard error cancels its siblings (first-error-wins) and
// is returned tagged with its shard, except that preferError keeps an
// induced sibling cancellation from masking the original cause; results
// are meaningful only when the error is nil. A panic on a shard goroutine
// (a re-raised callback panic) is re-raised on the caller once every shard
// has returned.
func fanOut[T any](ctx context.Context, dbs []*aplus.DB, read func(context.Context, *aplus.DB) (T, error)) ([]T, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type done struct {
		shard int
		err   error
	}
	out := make([]T, len(dbs))
	ch := make(chan done, len(dbs))
	var panicked panicBox
	for i, db := range dbs {
		go func(i int, db *aplus.DB) {
			defer panicked.forward(func() { ch <- done{shard: i, err: aplus.ErrQueryPanic} })
			v, err := read(ctx, db)
			if err != nil {
				cancel() // first-error-wins: stop sibling shards
			}
			out[i] = v // each goroutine owns its slot; the send orders it
			ch <- done{shard: i, err: err}
		}(i, db)
	}
	var firstErr error
	for range dbs {
		r := <-ch
		if r.err != nil && preferError(firstErr, r.err) {
			firstErr = fmt.Errorf("shard %d: %w", r.shard, r.err)
		}
	}
	panicked.rethrow()
	return out, firstErr
}

// profiled is one shard's read result with its profiled metrics.
type profiled[V any] struct {
	v V
	m aplus.Metrics
}

// mergeMetrics merges per-shard metrics: ICost and PredEvals sum
// (bit-identical to an unsharded run), EstimatedICost is the plan estimate
// (identical on every replica, taken from shard 0).
func mergeMetrics[V any](rs []profiled[V]) aplus.Metrics {
	mm := aplus.Metrics{EstimatedICost: rs[0].m.EstimatedICost}
	for _, r := range rs {
		mm.ICost += r.m.ICost
		mm.PredEvals += r.m.PredEvals
	}
	return mm
}

// preferError reports whether next should replace cur as the fan-out's
// reported error. The first error wins, except that a sibling's secondary
// cancellation (induced by our own cancel()) never masks the original
// cause.
func preferError(cur, next error) bool {
	if cur == nil {
		return true
	}
	return errors.Is(cur, aplus.ErrQueryCanceled) && !errors.Is(next, aplus.ErrQueryCanceled)
}

// panicBox captures the first panic among fan-out goroutines and
// re-raises it on the coordinating goroutine after the pool drains.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

// forward recovers a panic on the current goroutine, stores it, and runs
// done so the coordinator's drain loop still receives a result.
func (p *panicBox) forward(done func()) {
	if r := recover(); r != nil {
		p.mu.Lock()
		if !p.set {
			p.val, p.set = r, true
		}
		p.mu.Unlock()
		done()
	}
}

func (p *panicBox) rethrow() {
	p.mu.Lock()
	val, set := p.val, p.set
	p.mu.Unlock()
	if set {
		panic(val)
	}
}

// Stats aggregates cluster observability.
type Stats struct {
	// Aggregate merges the shards: logical dataset fields (vertex/edge
	// counts, sizes, epoch) come from shard 0 — every replica holds the
	// same data — while additive counters (governance, plan cache, WAL
	// bytes, folds, pending writes) sum across shards.
	Aggregate aplus.Stats
	// Shards holds each shard's own stats, in shard order.
	Shards []aplus.Stats
	// Diverged mirrors the write-poison state (cause in DivergedCause).
	Diverged      bool
	DivergedCause string
}

// Stats collects per-shard stats and the aggregate view.
func (c *Cluster) Stats() Stats {
	per := make([]aplus.Stats, len(c.dbs))
	for i, db := range c.dbs {
		per[i] = db.Stats()
	}
	agg := per[0]
	for _, st := range per[1:] {
		agg.PendingWrites += st.PendingWrites
		agg.FoldsTotal += st.FoldsTotal
		agg.IncrementalFolds += st.IncrementalFolds
		agg.GroupCommits += st.GroupCommits
		agg.GroupedWrites += st.GroupedWrites
		agg.WALBytes += st.WALBytes
		agg.ReplayedOps += st.ReplayedOps
		agg.MergeRetries += st.MergeRetries
		agg.QueriesInFlight += st.QueriesInFlight
		agg.QueriesRejected += st.QueriesRejected
		agg.QueriesCanceled += st.QueriesCanceled
		agg.QueriesTimedOut += st.QueriesTimedOut
		agg.SlowQueries += st.SlowQueries
		agg.QueriesPanicked += st.QueriesPanicked
		agg.PlanCacheHits += st.PlanCacheHits
		agg.PlanCacheMisses += st.PlanCacheMisses
		agg.PlanCacheEntries += st.PlanCacheEntries
		agg.QueryLatency = agg.QueryLatency.Merge(st.QueryLatency)
		agg.AdmissionWait = agg.AdmissionWait.Merge(st.AdmissionWait)
		agg.WALFsync = agg.WALFsync.Merge(st.WALFsync)
		agg.FoldDuration = agg.FoldDuration.Merge(st.FoldDuration)
		if sq := st.LastSlowQuery; sq != nil &&
			(agg.LastSlowQuery == nil || sq.When.After(agg.LastSlowQuery.When)) {
			agg.LastSlowQuery = sq
		}
		if st.Degraded && !agg.Degraded {
			agg.Degraded = true
			agg.DegradedCause = st.DegradedCause
		}
	}
	s := Stats{Aggregate: agg, Shards: per}
	if div, cause := c.Diverged(); div {
		s.Diverged = true
		s.DivergedCause = cause.Error()
	}
	return s
}
