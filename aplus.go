// Package aplus is an embeddable, in-memory graph database engine built
// around A+ indexes: tunable, space-efficient adjacency-list indexes with
// materialized-view support, as described in "A+ Indexes: Tunable and
// Space-Efficient Adjacency Lists in Graph Database Management Systems"
// (ICDE 2021).
//
// The engine stores property graphs, answers an openCypher MATCH/WHERE
// subset with worst-case-optimal join plans, and lets applications tailor
// its adjacency-list indexes to their workload:
//
//   - the primary A+ indexes can be reconfigured with arbitrary nested
//     partitioning and sorting criteria (RECONFIGURE PRIMARY INDEXES …);
//   - secondary vertex-partitioned indexes materialize predicate-filtered
//     1-hop views in byte-packed offset lists (CREATE 1-HOP VIEW …);
//   - secondary edge-partitioned indexes materialize 2-hop views that give
//     constant-time access to the adjacency of an edge (CREATE 2-HOP
//     VIEW …).
//
// A minimal session:
//
//	db := aplus.New()
//	alice, _ := db.AddVertex("Customer", aplus.Props{"name": "Alice"})
//	acct, _ := db.AddVertex("Account", aplus.Props{"city": "SF"})
//	db.AddEdge(alice, acct, "Owns", nil)
//	n, _ := db.Count("MATCH (c:Customer)-[:Owns]->(a:Account) WHERE a.city = 'SF'")
//
// New databases are in-memory and volatile. Open turns a directory into a
// durable database instead: every commit is appended to a write-ahead log
// and fsync'd before it becomes visible, background folds checkpoint the
// frozen base and truncate the log, and reopening the directory recovers
// the exact state of the last durable commit (see Open and DB.Close).
//
// # Parallelism and thread safety
//
// Queries run with morsel-driven intra-query parallelism: the plan's root
// scan is split into fixed-size ID ranges (morsels) dispensed to a pool of
// Parallelism workers, each running the full operator pipeline. Count and
// CountProfiled return bit-identical counts and merged ICost/PredEvals
// metrics regardless of worker count; Query streams the same set of rows
// but in a nondeterministic order when Parallelism != 1.
//
// The database is snapshot-isolated. Every read (Count, CountProfiled,
// Query, Explain, Stats, VertexProp, EdgeProp) pins the current immutable
// snapshot with two atomic operations — there is no lock on the read path
// at all — and observes exactly that state for its whole run. Writes
// (AddVertex, AddEdge, DeleteEdge, and grouped batches via Batch) stage
// their changes on a copy-on-write clone plus a delta overlay and publish
// a new snapshot with one atomic swap: readers never block on writers,
// and writers never wait for in-flight queries to drain. Writers serialize
// against each other; a write becomes visible to reads that start after
// its batch commits. A background merger folds large deltas back into
// block-packed index form off the query path (Flush forces it).
//
// Reads may be issued from anywhere, including from inside a Query
// callback (the nested read pins its own snapshot). Writes issued from
// inside a Query callback fail fast with ErrWriteInQueryCallback — the
// running query could never observe them anyway, since it reads its pinned
// snapshot; stage the changes and apply them after the query returns, e.g.
// in one Batch. Advise counts as a write: it builds and drops trial
// indexes.
package aplus

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/obs"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/plancache"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/snap"
	"github.com/aplusdb/aplus/internal/storage"
	"github.com/aplusdb/aplus/internal/wal"
)

// VertexID identifies a vertex.
type VertexID = storage.VertexID

// EdgeID identifies an edge.
type EdgeID = storage.EdgeID

// Props carries property values for loading: int/int64/float64/string/bool.
type Props map[string]any

// ShardSpec identifies a database's slot in a K-way hash-partitioned
// cluster: Index in [0, Of). See DB.Shard. Field-compatible with the exec
// layer's spec; the hash is Fibonacci multiplicative on the vertex ID.
type ShardSpec struct {
	Index int
	Of    int
}

// PlannerOptions restrict the optimizer's plan space; the zero value is the
// full A+ plan space. They exist for experiments that emulate systems with
// fixed adjacency-list indexes.
type PlannerOptions struct {
	// BinaryJoinsOnly removes multiway intersections (WCOJ) from the plan
	// space, as in Neo4j-class systems.
	BinaryJoinsOnly bool
	// IgnoreSecondaryIndexes hides secondary A+ indexes from the planner.
	IgnoreSecondaryIndexes bool
	// NoSortedSegments forbids binary-searched segment access inside
	// sorted lists.
	NoSortedSegments bool
}

func (p PlannerOptions) mode() opt.Mode {
	return opt.Mode{
		DisableWCOJ:        p.BinaryJoinsOnly,
		DisableSecondary:   p.IgnoreSecondaryIndexes,
		DisableSegments:    p.NoSortedSegments,
		DisableMultiExtend: p.BinaryJoinsOnly,
	}
}

// ErrWriteInQueryCallback is returned by every write entry point when it is
// invoked from inside a Query callback: the running query reads its pinned
// snapshot and could never observe the write, so the call is almost always
// a bug (and under the pre-snapshot lock-based engine it self-deadlocked).
// Collect the changes and apply them after the query returns, e.g. in one
// Batch.
var ErrWriteInQueryCallback = errors.New(
	"aplus: write issued from inside a Query callback; apply writes after the query returns (e.g. in one DB.Batch)")

// ErrWriteInBatchCallback is returned by every DB-level write entry point
// when it is invoked from inside a Batch callback: the batch already holds
// the writer mutex, so a nested DB write would self-deadlock. Stage the op
// on the *Batch argument instead.
var ErrWriteInBatchCallback = errors.New(
	"aplus: DB write issued from inside a Batch callback; stage the op on the Batch argument instead")

// DB is an in-memory graph database with A+ indexes.
type DB struct {
	// g is the load-phase graph: it is mutated directly (under mu) only
	// until the first query or DDL builds the indexes and publishes the
	// first snapshot; afterwards the graph of record lives in snapshots.
	g *storage.Graph
	// mgr owns the snapshot chain once indexes exist; the atomic pointer
	// keeps the read path lock-free.
	mgr atomic.Pointer[snap.Manager]
	// mu guards manager creation and pre-snapshot direct graph writes.
	mu sync.Mutex

	// Planner controls the optimizer's plan space for subsequent queries.
	Planner PlannerOptions

	// Parallelism is the worker-pool size for query execution: 0 uses
	// runtime.GOMAXPROCS(0), 1 forces the serial path, and any larger
	// value pins the pool size.
	Parallelism int

	// MorselSize overrides the scan-range size handed to each worker
	// (0 = exec.DefaultMorselSize). Exposed for tests and tuning.
	MorselSize int

	// MergeThreshold overrides the number of pending delta ops after which
	// a commit schedules a background merge (0 = the engine default). It
	// must be set before the first query or DDL.
	MergeThreshold int

	// Limits are the default per-query resource budgets applied to every
	// read that does not pass explicit limits (zero value = unlimited).
	Limits QueryLimits

	// QueryTimeout is the default deadline applied to every read whose
	// limits carry no MaxDuration (0 = none). Timed-out queries fail with a
	// wrapped ErrQueryTimeout within one morsel of work.
	QueryTimeout time.Duration

	// MaxConcurrentQueries gates how many top-level reads may execute at
	// once (0 = unlimited); excess arrivals queue or fail per
	// AdmissionPolicy. Set it before issuing queries — the gate's capacity
	// is fixed at the first gated read. Nested reads issued from inside a
	// Query callback bypass the gate (the outer query holds a slot).
	MaxConcurrentQueries int

	// AdmissionPolicy picks queue (default) or reject behavior at the
	// MaxConcurrentQueries gate.
	AdmissionPolicy AdmissionPolicy

	// SlowQueryThreshold, when positive, counts every read at least this
	// slow in Stats().SlowQueries, captures it as Stats().LastSlowQuery,
	// and logs it to SlowQueryLog when one is set.
	SlowQueryThreshold time.Duration

	// SlowQueryLog, when set alongside a positive SlowQueryThreshold,
	// receives one structured record per slow read: query text, duration,
	// i-cost, rows, governance outcome, and the physical plan. The plan is
	// rendered only for slow queries, never on the fast path.
	SlowQueryLog *slog.Logger

	// Shard, when Of > 1, marks this database as one full replica in a
	// K-way hash-partitioned cluster and restricts every query's root scan
	// to the vertices (or, for edge-rooted plans, edge sources) it owns.
	// The serving layer (internal/shard) sets it so per-shard counts,
	// i-cost, and PredEvals sum bit-identically to an unsharded run; the
	// zero value disables filtering. Set it before issuing queries.
	Shard ShardSpec

	// PlanCacheSize caps the compiled-plan cache shared by every read
	// (0 = DefaultPlanCacheSize, negative disables caching). The cache is
	// keyed on whitespace-normalized query text plus planner mode and
	// invalidated whenever a fold or DDL publishes a new index store, so a
	// hit is always exactly the plan a fresh compile would produce. Set it
	// before issuing queries; effectiveness counters surface in Stats.
	PlanCacheSize int

	// planOnce lazily sizes the plan cache at the first read; planCache is
	// nil when caching is disabled.
	planOnce  sync.Once
	planCache *plancache.Cache[planKey, *exec.Plan]

	// activeQueries counts Query calls in flight and cbGoroutines marks the
	// goroutines currently allowed to run their callbacks; activeBatches
	// and batchGoroutines do the same for Batch callbacks (which hold the
	// writer mutex). Both let writes from inside a callback fail fast
	// instead of misbehaving or self-deadlocking.
	activeQueries   atomic.Int64
	cbGoroutines    sync.Map // goroutine id -> *atomic.Int64 nesting count
	activeBatches   atomic.Int64
	batchGoroutines sync.Map // goroutine id -> *atomic.Int64 nesting count

	// Governance state (see governance.go): the lazily created admission
	// semaphore and the observability counters surfaced through Stats.
	admitCh         chan struct{} // guarded by mu until created
	queriesInFlight atomic.Int64
	queriesRejected atomic.Int64
	queriesCanceled atomic.Int64
	queriesTimedOut atomic.Int64
	slowQueries     atomic.Int64
	queriesPanicked atomic.Int64
	lastQueryPanic  atomic.Pointer[string]

	// Latency histograms (lock-free, log-bucketed; see internal/obs) and
	// the most recent slow-query capture, surfaced through Stats.
	queryLatency  obs.Histogram
	admissionWait obs.Histogram
	lastSlowQuery atomic.Pointer[SlowQuery]

	// injectWorkerFault, when set by tests, is plumbed into every query's
	// ParallelOptions to inject a panic into a live worker goroutine.
	injectWorkerFault func(worker int)

	// eng is the durability engine for databases created with Open (nil
	// for in-memory databases); replayedOps counts the WAL operations Open
	// replayed during recovery, and closed gates every entry point after
	// Close.
	eng         *wal.Engine
	replayedOps int64
	closed      atomic.Bool
}

// New returns an empty database with the default index configuration
// (partition by edge label, sort by neighbour ID).
func New() *DB {
	return &DB{g: storage.NewGraph()}
}

// newFromGraph wraps an existing internal graph (used by the generator
// helpers and the experiment harness).
func newFromGraph(g *storage.Graph) *DB { return &DB{g: g} }

// ensureManager builds the primary indexes and publishes the first
// snapshot on first use. The load-phase graph is frozen from then on.
func (db *DB) ensureManager() (*snap.Manager, error) {
	if m := db.mgr.Load(); m != nil {
		return m, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if m := db.mgr.Load(); m != nil {
		return m, nil
	}
	m, err := snap.NewManager(db.g, index.DefaultConfig(), snap.Options{MergeThreshold: db.MergeThreshold})
	if err != nil {
		return nil, err
	}
	db.mgr.Store(m)
	return m, nil
}

// workers resolves the effective worker-pool size.
func (db *DB) workers() int {
	if db.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if db.Parallelism < 1 {
		return 1
	}
	return db.Parallelism
}

func (db *DB) parallelOptions() exec.ParallelOptions {
	return exec.ParallelOptions{Workers: db.workers(), MorselSize: db.MorselSize}
}

// Batch is a group of writes staged against one snapshot and committed
// atomically: either every op becomes visible in a single snapshot
// publication, or (when the callback errors) none does. Batching is the
// preferred write path under load — one grouped commit amortizes the
// copy-on-write clone across all its ops.
type Batch struct {
	sb *snap.Batch
}

// AddVertex appends a vertex to the batch. label may be empty.
func (b *Batch) AddVertex(label string, props Props) (VertexID, error) {
	vals, err := toValues(props)
	if err != nil {
		return 0, err
	}
	return b.sb.AddVertex(label, vals)
}

// AddEdge appends an edge to the batch. The endpoints may be pre-existing
// vertices or vertices added earlier in the same batch.
func (b *Batch) AddEdge(src, dst VertexID, label string, props Props) (EdgeID, error) {
	vals, err := toValues(props)
	if err != nil {
		return 0, err
	}
	return b.sb.AddEdge(src, dst, label, vals)
}

// DeleteEdge stages an edge deletion in the batch.
func (b *Batch) DeleteEdge(e EdgeID) error { return b.sb.DeleteEdge(e) }

// Batch stages a group of writes and commits them atomically when fn
// returns nil (one snapshot publication for the whole group); when fn
// returns an error, every staged op is discarded and the error is
// returned. Batches serialize against other writes; readers are never
// blocked — queries that started before the commit keep observing their
// pinned snapshot, queries that start afterwards observe all of it.
//
// Inside fn, stage ops only on the *Batch argument: DB-level writes would
// deadlock on the held writer mutex and fail fast with
// ErrWriteInBatchCallback instead. DB-level reads are allowed; they pin
// the current snapshot and therefore do not see the ops staged so far.
func (db *DB) Batch(fn func(*Batch) error) error {
	if err := db.writeGuard(); err != nil {
		return err
	}
	mgr, err := db.ensureManager()
	if err != nil {
		return err
	}
	sb := mgr.Begin()
	// Abort is a no-op after Commit; the defer guarantees the writer mutex
	// is released even when fn panics or exits the goroutine.
	defer sb.Abort()
	db.activeBatches.Add(1)
	defer db.activeBatches.Add(-1)
	defer markGoroutine(&db.batchGoroutines)()
	if err := fn(&Batch{sb: sb}); err != nil {
		return err
	}
	return sb.Commit()
}

// AddVertex appends a vertex. label may be empty. After the first query or
// DDL this is a batch of one; group bulk writes with Batch instead.
func (db *DB) AddVertex(label string, props Props) (VertexID, error) {
	vals, err := toValues(props)
	if err != nil {
		return 0, err
	}
	return writeOne(db, func(sb *snap.Batch) (VertexID, error) {
		return sb.AddVertex(label, vals)
	}, func() (VertexID, error) {
		v := db.g.AddVertex(label)
		for k, sv := range vals {
			if err := db.g.SetVertexProp(v, k, sv); err != nil {
				return v, err
			}
		}
		return v, nil
	})
}

// AddEdge appends an edge. Before the first query the edge goes straight
// into the graph; afterwards it is a batch of one, committed into the
// current snapshot's delta overlay (group bulk writes with Batch).
func (db *DB) AddEdge(src, dst VertexID, label string, props Props) (EdgeID, error) {
	vals, err := toValues(props)
	if err != nil {
		return 0, err
	}
	return writeOne(db, func(sb *snap.Batch) (EdgeID, error) {
		return sb.AddEdge(src, dst, label, vals)
	}, func() (EdgeID, error) {
		e, err := db.g.AddEdge(src, dst, label)
		if err != nil {
			return 0, err
		}
		for k, v := range vals {
			if err := db.g.SetEdgeProp(e, k, v); err != nil {
				return 0, err
			}
		}
		return e, nil
	})
}

// DeleteEdge tombstones an edge; the tombstone lives in the snapshot delta
// until the background merger folds it out of the indexes.
func (db *DB) DeleteEdge(e EdgeID) error {
	_, err := writeOne(db, func(sb *snap.Batch) (struct{}, error) {
		return struct{}{}, sb.DeleteEdge(e)
	}, func() (struct{}, error) {
		return struct{}{}, db.g.DeleteEdge(e)
	})
	return err
}

// writeOne runs a single write through the guard and the right path:
// once a snapshot manager exists, a batch of one; before then, a direct
// mutation of the load-phase graph under db.mu (re-checking the manager
// under the lock, since a concurrent first query may have just published).
func writeOne[T any](db *DB, staged func(*snap.Batch) (T, error), loadPhase func() (T, error)) (T, error) {
	var zero T
	if err := db.writeGuard(); err != nil {
		return zero, err
	}
	if mgr := db.mgr.Load(); mgr != nil {
		return commitOne(mgr, staged)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if mgr := db.mgr.Load(); mgr != nil {
		return commitOne(mgr, staged)
	}
	return loadPhase()
}

// commitOne runs a single staged op through the manager's group-commit
// path: concurrent singleton writes coalesce into one batch publication —
// one graph clone, one WAL record, one fsync — while a lone write behaves
// exactly as a batch of one.
func commitOne[T any](mgr *snap.Manager, stage func(*snap.Batch) (T, error)) (T, error) {
	var id T
	err := mgr.CommitSingle(func(sb *snap.Batch) error {
		var serr error
		id, serr = stage(sb)
		return serr
	})
	return id, err
}

// Flush folds all pending delta ops into a fresh block-packed base,
// synchronously (the background merger does the same off the query path
// once enough ops accumulate).
func (db *DB) Flush() error {
	if err := db.writeGuard(); err != nil {
		return err
	}
	if mgr := db.mgr.Load(); mgr != nil {
		return mgr.Merge()
	}
	return nil
}

// Exec runs an index DDL command: RECONFIGURE PRIMARY INDEXES …,
// CREATE 1-HOP VIEW …, CREATE 2-HOP VIEW …, or DROP VIEW ….
func (db *DB) Exec(ddl string) error {
	if err := db.writeGuard(); err != nil {
		return err
	}
	mgr, err := db.ensureManager()
	if err != nil {
		return err
	}
	d, err := query.ParseDDL(ddl)
	if err != nil {
		return err
	}
	switch d := d.(type) {
	case query.Reconfigure:
		return mgr.Reconfigure(d.Cfg)
	case query.Create1Hop:
		return mgr.CreateVertexPartitioned(d.Def)
	case query.Create2Hop:
		return mgr.CreateEdgePartitioned(d.Def)
	case query.DropView:
		ok, err := mgr.DropIndex(d.Name)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("aplus: no secondary index named %q", d.Name)
		}
		return nil
	default:
		return fmt.Errorf("aplus: unsupported DDL")
	}
}

// DropIndex removes a secondary index by view name. Like every write it is
// rejected from inside a Query callback; since the signature has no error,
// that case also reports false — indistinguishable from a missing index.
// On durable databases a WAL-append failure likewise reports false (the
// drop was not published); use Exec("DROP VIEW <name>") where every
// failure mode surfaces as an error.
func (db *DB) DropIndex(name string) bool {
	if err := db.writeGuard(); err != nil {
		return false
	}
	if mgr := db.mgr.Load(); mgr != nil {
		ok, _ := mgr.DropIndex(name)
		return ok
	}
	return false
}

// Row is one query match: variable name to matched entity ID.
type Row struct {
	g        *storage.Graph
	Vertices map[string]VertexID
	Edges    map[string]EdgeID
}

// VertexProp reads a property of a matched vertex from the snapshot the
// running query has pinned, so the value is consistent with the match even
// while writers commit concurrently. Do not call it after the callback
// returns.
func (r Row) VertexProp(v VertexID, key string) any {
	return fromValue(r.g.VertexProp(v, key))
}

// EdgeProp reads a property of a matched edge; the Query-callback
// counterpart of DB.EdgeProp (see Row.VertexProp).
func (r Row) EdgeProp(e EdgeID, key string) any {
	return fromValue(r.g.EdgeProp(e, key))
}

// Metrics reports the work a query execution performed.
type Metrics struct {
	// ICost is the number of adjacency-list entries read (the paper's
	// intersection-cost metric).
	ICost int64
	// PredEvals is the number of per-entry predicate evaluations.
	PredEvals int64
	// EstimatedICost is the optimizer's cost estimate for the chosen plan.
	EstimatedICost float64
}

// Count runs a query and returns the number of matches. It honors the
// database-wide governance defaults (DB.Limits, DB.QueryTimeout,
// MaxConcurrentQueries); use CountCtx to additionally pass a cancelable
// context.
func (db *DB) Count(cypher string) (int64, error) {
	n, _, err := db.CountProfiledCtx(context.Background(), cypher)
	return n, err
}

// CountProfiled runs a query and also reports execution metrics. The count
// and the merged ICost/PredEvals are identical whatever Parallelism is.
// Governance defaults apply as in Count; see CountProfiledCtx.
func (db *DB) CountProfiled(cypher string) (int64, Metrics, error) {
	return db.CountProfiledCtx(context.Background(), cypher)
}

// Query streams matches to fn; returning false stops early. fn is never
// called concurrently with itself, but with Parallelism != 1 rows arrive in
// a nondeterministic order. The query observes the snapshot current when it
// started for its entire run: concurrently committed writes neither appear
// in its rows nor block it. fn may issue reads (they pin their own, possibly
// newer, snapshot); writes from inside fn fail with ErrWriteInQueryCallback.
// A panic inside fn — even on a worker goroutine — drains the pool,
// releases the snapshot pin, and re-raises on the calling goroutine.
// Governance defaults apply as in Count; see QueryCtx.
func (db *DB) Query(cypher string, fn func(Row) bool) error {
	return db.QueryCtx(context.Background(), cypher, fn)
}

// Explain returns the physical plan chosen for a query.
func (db *DB) Explain(cypher string) (string, error) {
	s, err := db.pin()
	if err != nil {
		return "", err
	}
	defer s.Release()
	plan, _, err := db.planSnap(s, cypher)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// pin builds the indexes if needed and pins the current snapshot.
func (db *DB) pin() (*snap.Snapshot, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	mgr, err := db.ensureManager()
	if err != nil {
		return nil, err
	}
	return mgr.Acquire(), nil
}

// DefaultPlanCacheSize is the compiled-plan cache capacity used when
// DB.PlanCacheSize is 0.
const DefaultPlanCacheSize = 256

// planKey keys the plan cache: normalized query text plus the effective
// planner mode. The mode is part of the key (not just the generation)
// because the same store serves both delta-clean reads and delta-pending
// reads with secondary indexes hidden.
type planKey struct {
	text string
	mode opt.Mode
}

// plans lazily creates the plan cache at the first read (nil = disabled).
func (db *DB) plans() *plancache.Cache[planKey, *exec.Plan] {
	db.planOnce.Do(func() {
		size := db.PlanCacheSize
		if size == 0 {
			size = DefaultPlanCacheSize
		}
		if size > 0 {
			db.planCache = plancache.New[planKey, *exec.Plan](size)
		}
	})
	return db.planCache
}

// planSnap resolves the plan for a query against a pinned snapshot and
// builds its runtime. While the snapshot carries unmerged writes, secondary
// indexes are hidden from the planner: materialized views do not cover the
// delta overlay, and the primary indexes (which splice it) answer every
// query shape.
func (db *DB) planSnap(s *snap.Snapshot, cypher string) (*exec.Plan, *exec.Runtime, error) {
	mode := db.Planner.mode()
	if !s.Delta().Empty() {
		mode.DisableSecondary = true
	}
	plan, err := db.planFor(s.Store(), cypher, mode)
	if err != nil {
		return nil, nil, err
	}
	rt := exec.NewRuntimeOver(s.Store(), s.Graph(), s.Delta())
	rt.Shard = exec.ShardSpec(db.Shard)
	return plan, rt, nil
}

// planFor returns a compiled plan for cypher, consulting the plan cache.
// The cache generation is the frozen *index.Store identity: compiled plans
// embed direct pointers into the store's secondary indexes and its resolved
// partition codes, and every fold or DDL publishes a new store, so keying
// on store identity invalidates exactly when a cached plan could go stale.
// A miss costs a parse and the DP search; the graph statistics the search
// ranks plans by are counted once per store (index.Store.GraphStats), so
// only a new store's first plan pays a pass over the graph.
// Parse errors and plan failures are never cached.
func (db *DB) planFor(store *index.Store, cypher string, mode opt.Mode) (*exec.Plan, error) {
	c := db.plans()
	if c == nil {
		q, err := query.Parse(cypher)
		if err != nil {
			return nil, err
		}
		return opt.Optimize(store, q, mode)
	}
	key := planKey{text: plancache.Normalize(cypher), mode: mode}
	if plan, ok := c.Get(store, key); ok {
		return plan, nil
	}
	q, err := query.Parse(cypher)
	if err != nil {
		return nil, err
	}
	plan, err := opt.Optimize(store, q, mode)
	if err != nil {
		return nil, err
	}
	c.Put(store, key, plan)
	return plan, nil
}

// VertexProp reads a vertex property (nil when absent, or after Close).
func (db *DB) VertexProp(v VertexID, key string) any {
	if db.closed.Load() {
		return nil
	}
	if mgr := db.mgr.Load(); mgr != nil {
		s := mgr.Acquire()
		defer s.Release()
		return fromValue(s.Graph().VertexProp(v, key))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return fromValue(db.g.VertexProp(v, key))
}

// EdgeProp reads an edge property (nil when absent, or after Close).
func (db *DB) EdgeProp(e EdgeID, key string) any {
	if db.closed.Load() {
		return nil
	}
	if mgr := db.mgr.Load(); mgr != nil {
		s := mgr.Acquire()
		defer s.Release()
		return fromValue(s.Graph().EdgeProp(e, key))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return fromValue(db.g.EdgeProp(e, key))
}

// Stats summarizes the database and index footprints.
type Stats struct {
	NumVertices, NumEdges      int
	GraphBytes                 int64
	PrimaryLevelBytes          int64
	PrimaryIDListBytes         int64
	SecondaryIndexBytes        int64
	IndexedEdgesIncludingViews int64

	// Epoch is the current snapshot's publication number (0 before the
	// first query or DDL).
	Epoch uint64
	// PendingWrites is the number of committed ops awaiting a merge into
	// block-packed index form.
	PendingWrites int
	// RetiredEpochs counts superseded snapshots whose last reader has
	// unpinned.
	RetiredEpochs int64
	// LastMergeError is the most recent delta-fold failure ("" when the
	// last fold succeeded). A persistent value here means pending writes
	// cannot currently be folded into block-packed form and PendingWrites
	// will keep climbing; Flush returns the same error synchronously.
	LastMergeError string

	// FoldsTotal counts published delta folds (incremental or full);
	// IncrementalFolds counts the subset that patched only the owners the
	// delta touched (O(delta)) instead of rebuilding every index (O(E)).
	FoldsTotal       int64
	IncrementalFolds int64
	// LastFoldDuration is the most recent fold's build time and
	// LastFoldDirtyOwners the number of dirty (direction, owner) lists it
	// carried — together the observable cost of the write path's merges.
	LastFoldDuration    time.Duration
	LastFoldDirtyOwners int
	// GroupCommits counts publications that coalesced 2+ concurrent
	// singleton writes into one batch (one WAL record, one fsync);
	// GroupedWrites is the number of writes they carried.
	GroupCommits  int64
	GroupedWrites int64

	// Durability counters; all zero for in-memory databases (New).

	// WALBytes is the current size of the write-ahead log. It grows with
	// every commit and shrinks when a checkpoint truncates the covered
	// prefix.
	WALBytes int64
	// CheckpointEpoch is the epoch of the newest checkpoint on disk (0
	// before the first fold checkpoints).
	CheckpointEpoch uint64
	// CheckpointBytes is the newest checkpoint's file size.
	CheckpointBytes int64
	// ReplayedOps is the number of WAL operations Open replayed during
	// recovery — 0 after a clean shutdown whose whole state was
	// checkpointed, positive when a WAL tail had to be re-committed.
	ReplayedOps int64
	// LastCheckpointError is the most recent checkpoint failure ("" when
	// the last attempt succeeded); a persistent value means the WAL cannot
	// be truncated and keeps growing, the durable counterpart of
	// LastMergeError.
	LastCheckpointError string
	// Degraded reports that a failed WAL fsync poisoned the log: every
	// write fails fast with ErrDegraded while reads keep serving the last
	// published snapshot. DegradedCause holds the original fsync failure.
	// Only reopening the database (recovering from the durable prefix)
	// clears it.
	Degraded      bool
	DegradedCause string
	// LastWALError is the most recent WAL append failure of any kind (""
	// if none) — set also for non-degrading failures like a full disk,
	// where the log stays healthy and later commits may succeed.
	LastWALError string
	// MergeRetries counts background retries of a failed fold or
	// checkpoint; RetryBackoff is the delay currently in force between
	// them (0 when the merger is healthy).
	MergeRetries int64
	RetryBackoff time.Duration

	// Query-governance observability — the signals an admission-controlling
	// serving layer consumes.

	// QueriesInFlight is the number of admitted reads currently executing.
	QueriesInFlight int64
	// QueriesRejected counts reads failed fast by AdmitReject at the
	// MaxConcurrentQueries gate.
	QueriesRejected int64
	// QueriesCanceled counts reads stopped by context cancellation;
	// QueriesTimedOut counts reads stopped by a deadline (context,
	// MaxDuration, or QueryTimeout).
	QueriesCanceled int64
	QueriesTimedOut int64
	// SlowQueries counts reads at least SlowQueryThreshold slow.
	SlowQueries int64
	// QueriesPanicked counts engine panics converted to errors;
	// LastQueryPanic is the most recent one's panic message ("" if none).
	QueriesPanicked int64
	LastQueryPanic  string

	// Latency histograms (log-bucketed p50/p95/p99, mergeable across
	// shards): end-to-end governed-read latency, admission-gate wait, WAL
	// fsync time (durable databases only), and delta-fold duration.
	QueryLatency  LatencyStats
	AdmissionWait LatencyStats
	WALFsync      LatencyStats
	FoldDuration  LatencyStats
	// LastSlowQuery is the most recent read that crossed
	// SlowQueryThreshold (nil when none has).
	LastSlowQuery *SlowQuery

	// Plan-cache observability: a hit reuses a compiled plan (skipping
	// parse and plan search); misses include lookups against a store the
	// cache has not seen yet (fold/DDL invalidation). All zero when
	// PlanCacheSize is negative.
	PlanCacheHits    int64
	PlanCacheMisses  int64
	PlanCacheEntries int64
}

// planCacheStats merges the plan cache's counters into st.
func (db *DB) planCacheStats(st *Stats) {
	if c := db.plans(); c != nil {
		cs := c.Stats()
		st.PlanCacheHits = cs.Hits
		st.PlanCacheMisses = cs.Misses
		st.PlanCacheEntries = cs.Entries
	}
}

// Stats reports sizes; index fields are zero before the first query or DDL.
func (db *DB) Stats() Stats {
	mgr := db.mgr.Load()
	if mgr == nil {
		db.mu.Lock()
		if db.mgr.Load() == nil {
			st := Stats{
				NumVertices: db.g.NumVertices(),
				NumEdges:    db.g.NumLiveEdges(),
				GraphBytes:  db.g.MemoryBytes(),
			}
			db.mu.Unlock()
			db.governanceStats(&st)
			db.planCacheStats(&st)
			return st
		}
		db.mu.Unlock()
		mgr = db.mgr.Load()
	}
	s := mgr.Acquire()
	defer s.Release()
	g := s.Graph()
	is := s.Store().StatsLocked()
	ms := mgr.Stats()
	st := Stats{
		NumVertices:                g.NumVertices(),
		NumEdges:                   g.NumLiveEdges() - s.Delta().Deletes(),
		GraphBytes:                 g.MemoryBytes(),
		PrimaryLevelBytes:          is.PrimaryLevels,
		PrimaryIDListBytes:         is.PrimaryIDLists,
		SecondaryIndexBytes:        is.SecondaryBytes,
		IndexedEdgesIncludingViews: is.IndexedEdges,
		Epoch:                      ms.Epoch,
		PendingWrites:              s.Delta().Pending(),
		RetiredEpochs:              ms.RetiredEpochs,
		LastMergeError:             ms.LastMergeError,
		FoldsTotal:                 ms.FoldsTotal,
		IncrementalFolds:           ms.IncrementalFolds,
		LastFoldDuration:           ms.LastFoldDuration,
		LastFoldDirtyOwners:        ms.LastFoldDirtyOwners,
		GroupCommits:               ms.GroupCommits,
		GroupedWrites:              ms.GroupedOps,
		MergeRetries:               ms.MergeRetries,
		RetryBackoff:               ms.RetryBackoff,
		FoldDuration:               ms.FoldHist,
	}
	if db.eng != nil {
		es := db.eng.Stats()
		st.WALBytes = es.WALBytes
		st.CheckpointEpoch = es.CheckpointEpoch
		st.CheckpointBytes = es.CheckpointBytes
		st.ReplayedOps = db.replayedOps
		st.LastCheckpointError = es.LastCheckpointError
		st.Degraded = es.Degraded
		st.DegradedCause = es.DegradedCause
		st.LastWALError = es.LastWALError
		st.WALFsync = es.FsyncHist
	}
	db.governanceStats(&st)
	db.planCacheStats(&st)
	return st
}

// writeGuard rejects writes issued after Close or from inside a Query or
// Batch callback. It is nearly free when neither applies; the callback
// check identifies the calling goroutine (one small runtime.Stack read)
// and tests it against the goroutines currently marked as running
// callbacks.
func (db *DB) writeGuard() error {
	if db.closed.Load() {
		return ErrClosed
	}
	inQuery := db.activeQueries.Load() > 0
	inBatch := db.activeBatches.Load() > 0
	if !inQuery && !inBatch {
		return nil
	}
	id := gid()
	if inQuery {
		if _, ok := db.cbGoroutines.Load(id); ok {
			return ErrWriteInQueryCallback
		}
	}
	if inBatch {
		if _, ok := db.batchGoroutines.Load(id); ok {
			return ErrWriteInBatchCallback
		}
	}
	return nil
}

// markGoroutine registers the calling goroutine in a callback-goroutine
// set and returns the matching unmark. Nesting (a callback issued from
// inside a callback on the same goroutine) is counted, so an inner unmark
// does not strip the outer protection.
func markGoroutine(m *sync.Map) func() {
	id := gid()
	v, _ := m.LoadOrStore(id, new(atomic.Int64))
	c := v.(*atomic.Int64)
	c.Add(1)
	return func() {
		if c.Add(-1) == 0 {
			m.Delete(id)
		}
	}
}

// markCallbackGoroutine marks the caller as a Query-callback goroutine.
func (db *DB) markCallbackGoroutine() func() {
	return markGoroutine(&db.cbGoroutines)
}

// gid returns the calling goroutine's id, parsed from the first line of its
// stack header ("goroutine N [...]"). It costs roughly a microsecond and is
// only used on write entry points while queries are in flight, and once per
// worker per streaming query.
func gid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := buf[len("goroutine "):n]
	var id uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func toValues(props Props) (map[string]storage.Value, error) {
	if len(props) == 0 {
		return nil, nil
	}
	vals := make(map[string]storage.Value, len(props))
	for k, val := range props {
		sv, err := toValue(val)
		if err != nil {
			return nil, fmt.Errorf("aplus: property %q: %w", k, err)
		}
		vals[k] = sv
	}
	return vals, nil
}

func toValue(v any) (storage.Value, error) {
	switch x := v.(type) {
	case nil:
		return storage.NullValue, nil
	case int:
		return storage.Int(int64(x)), nil
	case int32:
		return storage.Int(int64(x)), nil
	case int64:
		return storage.Int(x), nil
	case float64:
		return storage.Float(x), nil
	case string:
		return storage.Str(x), nil
	case bool:
		return storage.Bool(x), nil
	default:
		return storage.NullValue, fmt.Errorf("unsupported property type %T", v)
	}
}

func fromValue(v storage.Value) any {
	switch v.Kind {
	case storage.KindInt:
		return v.I
	case storage.KindFloat:
		return v.F
	case storage.KindString:
		return v.S
	case storage.KindBool:
		return v.I != 0
	default:
		return nil
	}
}
