package aplus

// DB-level tests for query governance: cancellation and deadlines,
// resource budgets with partial metrics, panic isolation (engine and user
// callbacks), admission control, goroutine hygiene, and a -race stress of
// concurrent cancels against writers and folds.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

const (
	triangleQ = "MATCH a1-[e1]->a2-[e2]->a3, a3-[e3]->a1"
	star3Q    = "MATCH a1-[e1]->a2, a1-[e2]->a3, a1-[e3]->a4"
	hop1Q     = "MATCH a1-[e1]->a2"
)

// buildDense fills db with a deterministic dense graph during the load
// phase (before the first query), so index construction happens once on the
// first read.
func buildDense(t testing.TB, db *DB, nv, deg int) {
	t.Helper()
	ids := make([]VertexID, nv)
	for i := range ids {
		v, err := db.AddVertex("V", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v
	}
	for i := 0; i < nv; i++ {
		for d := 0; d < deg; d++ {
			dst := (i*131 + d*17 + 1) % nv
			if _, err := db.AddEdge(ids[i], ids[dst], "E", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var (
	heavyOnce sync.Once
	heavyDB   *DB
	heavyFull int64 // full triangle count
	heavyCost int64 // full triangle i-cost
)

// heavy returns a shared read-only dense database whose triangle query is
// slow enough (tens of millions of intersection entries) to cancel, time
// out, and budget-abort mid-flight. Tests that mutate DB fields must build
// their own database instead.
func heavy(t *testing.T) *DB {
	t.Helper()
	heavyOnce.Do(func() {
		heavyDB = New()
		heavyDB.MorselSize = 32
		buildDense(t, heavyDB, 3000, 40)
		n, m, err := heavyDB.CountProfiled(triangleQ)
		if err != nil {
			t.Fatal(err)
		}
		heavyFull, heavyCost = n, m.ICost
	})
	if heavyFull == 0 {
		t.Fatal("heavy graph produced no triangles")
	}
	return heavyDB
}

// snapPins reads the current snapshot's reader count without pinning.
func snapPins(db *DB) int64 { return db.mgr.Load().Stats().Pins }

func TestCancelCountMidFlight(t *testing.T) {
	db := heavy(t)
	before := db.Stats().QueriesCanceled
	ctx, cancel := context.WithCancel(context.Background())
	var cancelAt time.Time
	go func() {
		time.Sleep(time.Millisecond)
		cancelAt = time.Now()
		cancel()
	}()
	start := time.Now()
	n, m, err := db.CountProfiledCtx(ctx, triangleQ)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("err = %v (n=%d in %v), want ErrQueryCanceled", err, n, elapsed)
	}
	latency := time.Since(cancelAt)
	t.Logf("canceled after %v, returned %v later (partial i-cost %d / full %d)", time.Millisecond, latency, m.ICost, heavyCost)
	if latency > 250*time.Millisecond {
		t.Errorf("cancellation latency %v, want bounded by ~one morsel", latency)
	}
	if m.ICost <= 0 || m.ICost >= heavyCost {
		t.Errorf("partial i-cost = %d, want in (0, %d)", m.ICost, heavyCost)
	}
	if got := snapPins(db); got != 0 {
		t.Errorf("snapshot pins after cancel = %d, want 0", got)
	}
	st := db.Stats()
	if st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
	if st.QueriesCanceled != before+1 {
		t.Errorf("QueriesCanceled = %d, want %d", st.QueriesCanceled, before+1)
	}
}

func TestCancelPreCanceledContext(t *testing.T) {
	db := heavy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := db.CountCtx(ctx, star3Q)
	if !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("err = %v, want ErrQueryCanceled", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("pre-canceled query took %v, want ~immediate", d)
	}
	if got := snapPins(db); got != 0 {
		t.Errorf("snapshot pins = %d, want 0", got)
	}
	if st := db.Stats(); st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
}

// TestCancelQueryHubTail cancels a star3 enumeration from inside the
// callback while a single hub-dominated morsel is producing millions of
// rows: the per-sink-tuple governor tick must stop it within a bounded
// number of further emits, not at the (never-reached) morsel boundary.
func TestCancelQueryHubTail(t *testing.T) {
	db := New()
	hub, err := db.AddVertex("H", nil)
	if err != nil {
		t.Fatal(err)
	}
	const fan = 250 // star3 from the hub alone enumerates fan^3 = 15.6M rows
	for i := 0; i < fan; i++ {
		spoke, err := db.AddVertex("S", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddEdge(hub, spoke, "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows int64
	var cancelAt time.Time
	err = db.QueryCtx(ctx, star3Q, func(Row) bool {
		rows++
		if rows == 10_000 {
			cancelAt = time.Now()
			cancel()
		}
		return true
	})
	if !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("err = %v after %d rows, want ErrQueryCanceled", err, rows)
	}
	latency := time.Since(cancelAt)
	t.Logf("hub tail: canceled at 10k rows, stopped after %d rows, %v later", rows, latency)
	// Bound: the watcher trips the governor asynchronously; each worker then
	// stops within one CheckEvery window of sink tuples.
	if rows > 200_000 {
		t.Errorf("enumerated %d rows after cancel, want the tail cut within a few check windows", rows)
	}
	if got := snapPins(db); got != 0 {
		t.Errorf("snapshot pins = %d, want 0", got)
	}
}

func TestQueryTimeoutDefault(t *testing.T) {
	db := New()
	db.MorselSize = 32
	buildDense(t, db, 1500, 30)
	db.QueryTimeout = time.Millisecond
	_, err := db.Count(triangleQ)
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	st := db.Stats()
	if st.QueriesTimedOut == 0 {
		t.Errorf("QueriesTimedOut = 0, want > 0")
	}
	if st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
	// Lifting the timeout restores normal service on the same DB.
	db.QueryTimeout = 0
	if _, err := db.Count(triangleQ); err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
}

func TestMaxDurationTimesOut(t *testing.T) {
	db := heavy(t)
	before := db.Stats().QueriesTimedOut
	_, m, err := db.CountProfiledLimited(context.Background(), triangleQ, QueryLimits{MaxDuration: time.Millisecond})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	if m.ICost <= 0 || m.ICost >= heavyCost {
		t.Errorf("partial i-cost = %d, want in (0, %d)", m.ICost, heavyCost)
	}
	if got := db.Stats().QueriesTimedOut; got != before+1 {
		t.Errorf("QueriesTimedOut = %d, want %d", got, before+1)
	}
}

func TestBudgetICost(t *testing.T) {
	db := heavy(t)
	budget := heavyCost / 10
	_, m, err := db.CountProfiledLimited(context.Background(), triangleQ, QueryLimits{MaxICost: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Exceeded != "i-cost" {
		t.Errorf("Exceeded = %q, want i-cost", be.Exceeded)
	}
	if be.Partial.ICost <= budget/2 || be.Partial.ICost >= heavyCost {
		t.Errorf("partial i-cost = %d, want around budget %d and below full %d", be.Partial.ICost, budget, heavyCost)
	}
	if m.ICost != be.Partial.ICost {
		t.Errorf("returned Metrics.ICost %d != BudgetError partial %d", m.ICost, be.Partial.ICost)
	}
}

func TestBudgetRows(t *testing.T) {
	db := heavy(t)
	_, _, err := db.CountProfiledLimited(context.Background(), star3Q, QueryLimits{MaxRows: 1000})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Exceeded != "rows" {
		t.Errorf("Exceeded = %q, want rows", be.Exceeded)
	}
	if be.PartialRows <= 1000 {
		t.Errorf("PartialRows = %d, want > the 1000-row budget it overshot", be.PartialRows)
	}
	// Budgets are advisory gates, not truncation: a query under budget is
	// untouched.
	n, _, err := db.CountProfiledLimited(context.Background(), triangleQ, QueryLimits{MaxRows: heavyFull + 1})
	if err != nil || n != heavyFull {
		t.Errorf("under-budget count = %d, %v, want %d, nil", n, err, heavyFull)
	}
}

// TestWorkerPanicIsolated injects a panic into a live worker goroutine and
// requires it to surface as a wrapped ErrQueryPanic — and the immediately
// following query on the same DB to return bit-identical count and i-cost
// to a fresh database over the same graph.
func TestWorkerPanicIsolated(t *testing.T) {
	db := New()
	// Two workers over four 100-vertex morsels: the pool always starts
	// worker 1, whatever GOMAXPROCS is, so the fault below always fires.
	db.Parallelism = 2
	db.MorselSize = 100
	buildDense(t, db, 400, 8)
	fresh := New()
	buildDense(t, fresh, 400, 8)
	wantN, wantM, err := fresh.CountProfiled(triangleQ)
	if err != nil {
		t.Fatal(err)
	}

	db.injectWorkerFault = func(w int) {
		if w == 1 {
			panic("governance test fault")
		}
	}
	_, _, err = db.CountProfiled(triangleQ)
	if !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("err = %v, want ErrQueryPanic", err)
	}
	var qp *QueryPanicError
	if !errors.As(err, &qp) || qp.Value != "governance test fault" || len(qp.Stack) == 0 {
		t.Fatalf("panic error detail = %+v", qp)
	}
	st := db.Stats()
	if st.QueriesPanicked != 1 || st.LastQueryPanic != "governance test fault" {
		t.Errorf("panic stats = %d %q", st.QueriesPanicked, st.LastQueryPanic)
	}
	if got := snapPins(db); got != 0 {
		t.Errorf("snapshot pins after panic = %d, want 0", got)
	}

	db.injectWorkerFault = nil
	gotN, gotM, err := db.CountProfiled(triangleQ)
	if err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	if gotN != wantN || gotM.ICost != wantM.ICost || gotM.PredEvals != wantM.PredEvals {
		t.Errorf("post-panic count/metrics = %d/%+v, fresh DB = %d/%+v", gotN, gotM, wantN, wantM)
	}
}

// TestQueryCallbackPanicReRaised: a panic in the user's Query callback —
// which may run on a worker goroutine — must re-raise on the calling
// goroutine with the snapshot pin released, not crash the process.
func TestQueryCallbackPanicReRaised(t *testing.T) {
	db := New()
	buildDense(t, db, 200, 6)
	if _, err := db.Count(hop1Q); err != nil { // build indexes
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r != "callback boom" {
				t.Errorf("recovered %v, want the callback's panic value", r)
			}
		}()
		rows := 0
		db.Query(hop1Q, func(Row) bool {
			rows++
			if rows == 3 {
				panic("callback boom")
			}
			return true
		})
		t.Error("Query returned instead of re-raising the callback panic")
	}()
	if got := snapPins(db); got != 0 {
		t.Fatalf("snapshot pins after callback panic = %d, want 0", got)
	}
	if st := db.Stats(); st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
	// The DB must be fully usable: reads and writes both.
	if _, err := db.Count(hop1Q); err != nil {
		t.Fatalf("count after callback panic: %v", err)
	}
	if _, err := db.AddVertex("V", nil); err != nil {
		t.Fatalf("write after callback panic: %v", err)
	}
}

// TestBatchCallbackPanicReleasesWriter: a panicking Batch callback must
// release the writer mutex (via the deferred Abort) so later writes work.
func TestBatchCallbackPanicReleasesWriter(t *testing.T) {
	db := New()
	buildDense(t, db, 50, 3)
	if _, err := db.Count(hop1Q); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "batch boom" {
				t.Errorf("recovered %v", r)
			}
		}()
		db.Batch(func(b *Batch) error {
			if _, err := b.AddVertex("V", nil); err != nil {
				return err
			}
			panic("batch boom")
		})
	}()
	done := make(chan error, 1)
	go func() {
		done <- db.Batch(func(b *Batch) error {
			_, err := b.AddVertex("V", nil)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("batch after panic: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer mutex not released after Batch callback panic")
	}
}

func TestAdmissionReject(t *testing.T) {
	db := New()
	buildDense(t, db, 200, 6)
	db.MaxConcurrentQueries = 1
	db.AdmissionPolicy = AdmitReject
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var once sync.Once
		done <- db.Query(hop1Q, func(Row) bool {
			once.Do(func() { close(started) })
			<-release
			return false
		})
	}()
	<-started
	if st := db.Stats(); st.QueriesInFlight != 1 {
		t.Errorf("QueriesInFlight = %d, want 1", st.QueriesInFlight)
	}
	_, err := db.Count(hop1Q)
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("err = %v, want ErrAdmissionRejected", err)
	}
	if st := db.Stats(); st.QueriesRejected != 1 {
		t.Errorf("QueriesRejected = %d, want 1", st.QueriesRejected)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(hop1Q); err != nil {
		t.Fatalf("count after slot freed: %v", err)
	}
	if st := db.Stats(); st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
}

func TestAdmissionQueueAndCancelWhileQueued(t *testing.T) {
	db := New()
	buildDense(t, db, 200, 6)
	db.MaxConcurrentQueries = 1 // AdmitQueue is the zero-value policy
	started := make(chan struct{})
	release := make(chan struct{})
	holder := make(chan error, 1)
	go func() {
		var once sync.Once
		holder <- db.Query(hop1Q, func(Row) bool {
			once.Do(func() { close(started) })
			<-release
			return false
		})
	}()
	<-started
	// A queued query whose context dies while waiting leaves the queue with
	// the canceled/timeout sentinel.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := db.CountCtx(ctx, hop1Q); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("queued+expired err = %v, want ErrQueryTimeout", err)
	}
	// A queued query with a live context runs as soon as the slot frees.
	queued := make(chan error, 1)
	go func() {
		_, err := db.Count(hop1Q)
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the gate
	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("queued query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query never admitted after slot freed")
	}
}

// TestAdmissionNestedReadBypass: reads issued from inside a Query callback
// must bypass the gate — the outer query holds the only slot, so queueing
// would self-deadlock.
func TestAdmissionNestedReadBypass(t *testing.T) {
	db := New()
	buildDense(t, db, 200, 6)
	db.MaxConcurrentQueries = 1
	want, err := db.Count(hop1Q)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	err = db.Query(hop1Q, func(Row) bool {
		n, err := db.Count(hop1Q)
		if err != nil || n != want {
			t.Errorf("nested count = %d, %v, want %d, nil", n, err, want)
		}
		ran = true
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("callback never ran")
	}
}

// stableGoroutines waits for the goroutine count to hold still and returns
// it.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	last := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last && i >= 2 {
			return n
		}
		last = n
	}
	return last
}

// TestGovernanceGoroutineHygiene: the worker pool, context watchers, and
// admission gate must fully drain after cancel, timeout, budget, and panic
// aborts — no goroutine may outlive its query.
func TestGovernanceGoroutineHygiene(t *testing.T) {
	db := New()
	db.MorselSize = 32
	buildDense(t, db, 1200, 20)
	if _, err := db.Count(hop1Q); err != nil { // build indexes + merger
		t.Fatal(err)
	}
	before := stableGoroutines(t)
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(500 * time.Microsecond); cancel() }()
		db.CountCtx(ctx, triangleQ)
		cancel()
		db.CountProfiledLimited(context.Background(), triangleQ, QueryLimits{MaxDuration: time.Millisecond})
		db.CountProfiledLimited(context.Background(), triangleQ, QueryLimits{MaxICost: 1000})
	}
	db.injectWorkerFault = func(int) { panic("hygiene fault") }
	db.Count(triangleQ)
	db.injectWorkerFault = nil
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines settled at %d, started at %d — leak after governed aborts", now, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := db.Stats(); st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
	if got := snapPins(db); got != 0 {
		t.Errorf("snapshot pins = %d, want 0", got)
	}
}

// TestCancelStressWithWritersAndFolds races governed reads (short
// deadlines, explicit cancels) against committing writers and synchronous
// folds; run with -race in CI. Nothing may deadlock, leak, or return an
// error outside the governance set.
func TestCancelStressWithWritersAndFolds(t *testing.T) {
	db := New()
	db.MergeThreshold = 64
	buildDense(t, db, 400, 8)
	if _, err := db.Count(hop1Q); err != nil {
		t.Fatal(err)
	}
	var readers, writer sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() { // writer: committed batches + periodic synchronous folds
		defer writer.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := db.Batch(func(b *Batch) error {
				for k := 0; k < 8; k++ {
					src := VertexID((i*7 + k) % 400)
					dst := VertexID((i*13 + k*3 + 1) % 400)
					if _, err := b.AddEdge(src, dst, "E", nil); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if i%10 == 0 {
				if err := db.Flush(); err != nil {
					t.Errorf("fold: %v", err)
					return
				}
			}
			i++
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				var ctx context.Context
				var cancel context.CancelFunc
				if i%2 == 0 {
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(1+r)*time.Millisecond)
				} else {
					ctx, cancel = context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration(500+r*300) * time.Microsecond)
						cancel()
					}()
				}
				_, err := db.CountCtx(ctx, triangleQ)
				cancel()
				if err != nil && !errors.Is(err, ErrQueryCanceled) && !errors.Is(err, ErrQueryTimeout) {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if _, err := db.Count(triangleQ); err != nil {
		t.Fatalf("count after stress: %v", err)
	}
	if st := db.Stats(); st.QueriesInFlight != 0 {
		t.Errorf("QueriesInFlight = %d, want 0", st.QueriesInFlight)
	}
}
