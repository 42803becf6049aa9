package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMorselSize is the number of root-scan positions handed to a worker
// at a time. Morsels are small enough to balance skewed pipelines (one hub
// vertex can dominate a morsel) and large enough to amortize the shared
// cursor increment.
const DefaultMorselSize = 1024

// partitionableOp is implemented by root operators whose input is a dense
// table of scan positions that can be split into independent ranges
// (morsels). Only the first operator of a plan is ever partitioned; the
// rest of the pipeline runs unchanged inside each worker.
type partitionableOp interface {
	Op
	// tableSize returns the number of scan positions.
	tableSize(rt *Runtime) int
	// runRange behaves like run restricted to scan positions [lo, hi).
	// Running every range of a partition of [0, tableSize) exactly once
	// produces the same multiset of extensions as run.
	runRange(rt *Runtime, sc *opScratch, b *Binding, lo, hi int, next func() bool) bool
}

var (
	_ partitionableOp = (*ScanVertexOp)(nil)
	_ partitionableOp = (*ScanEdgeOp)(nil)
)

// ParallelOptions configure morsel-driven execution.
type ParallelOptions struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MorselSize is the scan-range size per work unit; <= 0 means
	// DefaultMorselSize.
	MorselSize int
	// OnWorkerStart, when set, runs at the start of every worker goroutine
	// and returns a teardown called when the worker exits. Callers use it to
	// tag worker goroutines (e.g. so writes issued from inside a streaming
	// callback can be detected and rejected).
	OnWorkerStart func() func()
	// InjectWorkerFault, when set, runs once per worker goroutine (and once,
	// as worker 0, on the serial fallback) after the panic recovery is
	// installed. It exists so tests can inject a panic into a live worker
	// and assert the pool converts it to a *PanicError instead of crashing.
	InjectWorkerFault func(worker int)
}

func (o ParallelOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o ParallelOptions) morsel() int {
	if o.MorselSize <= 0 {
		return DefaultMorselSize
	}
	return o.MorselSize
}

// CountParallel executes the plan with the morsel-driven worker pool and
// returns the number of matches: the AggCount case of AggregateParallel,
// with the same parity, panic, and governance contract.
func (p *Plan) CountParallel(rt *Runtime, o ParallelOptions) (int64, error) {
	res, err := p.AggregateParallel(rt, o, AggSpec{Kind: AggCount})
	return res.Rows, err
}

// ExecuteParallel streams complete matches into emit from a morsel-driven
// worker pool. Calls to emit are serialized (emit never runs concurrently
// with itself) but arrive in a nondeterministic order; the binding passed
// to emit is worker-owned and reused — copy it if retaining. Returning
// false from emit stops all workers: no further emit calls occur, though
// in-flight workers may still read the indexes briefly before parking.
// Plans whose root operator is not partitionable fall back to the serial
// path. Panic conversion and governance polling behave as in
// AggregateParallel.
func (p *Plan) ExecuteParallel(rt *Runtime, o ParallelOptions, emit func(*Binding) bool) error {
	var mu sync.Mutex
	stopped := false
	_, err := p.runParallel(rt, o, len(p.Ops), AggSpec{}, func(b *Binding) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return false
		}
		if !emit(b) {
			stopped = true
			return false
		}
		return true
	})
	return err
}

// runParallel executes the plan with the sink at stop — enumerating into
// emit when it is non-nil, folding spec otherwise — on the worker pool,
// or serially when there is one worker or the root is not partitionable.
func (p *Plan) runParallel(rt *Runtime, o ParallelOptions, stop int, spec AggSpec, emit func(*Binding) bool) (AggResult, error) {
	if workers := o.workers(); workers > 1 {
		if res, ran, err := p.runMorsels(rt, o, workers, stop, spec, emit); ran {
			return res, err
		}
	}
	return p.runSerial(rt, o, stop, spec, emit)
}

// runSerial is the single-threaded path with the same panic-to-error
// contract as the worker pool.
func (p *Plan) runSerial(rt *Runtime, o ParallelOptions, stop int, spec AggSpec, emit func(*Binding) bool) (res AggResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	if o.InjectWorkerFault != nil {
		o.InjectWorkerFault(0)
	}
	return rt.pipelineFor(p).run(stop, emit, spec), nil
}

// runMorsels partitions the root scan into morsels dispensed from a shared
// cursor and runs the tail pipeline in workers goroutines, each over its
// own Runtime-owned pipeline (binding + scratch arena + closure chain).
// With emit nil the workers fold spec at boundary stop with the
// allocation-free aggregate sink and the per-worker partials are merged
// exactly; otherwise every worker enumerates into emit, which must be safe
// for concurrent use. It reports ran=false
// (without spawning anything) when the plan's root is not partitionable,
// signalling a serial fallback.
//
// Worker panics are recovered inside the worker, park the pool via stopAll,
// and surface as the returned error (first panic wins). Per-worker metric
// counters accumulated before a panic or a governor trip are still merged
// into rt, so aborted executions report partial profiled metrics.
func (p *Plan) runMorsels(rt *Runtime, o ParallelOptions, workers int, stop int, spec AggSpec, emit func(*Binding) bool) (AggResult, bool, error) {
	if len(p.Ops) == 0 {
		return AggResult{}, false, nil
	}
	root, ok := p.Ops[0].(partitionableOp)
	if !ok {
		return AggResult{}, false, nil
	}
	size := root.tableSize(rt)
	morsel := o.morsel()
	numMorsels := (size + morsel - 1) / morsel
	if workers > numMorsels {
		workers = numMorsels
	}
	// Workers accumulate in their pipeline-local counters and store the
	// results here once at exit; wg.Wait orders those stores before the merge.
	aggs := make([]AggResult, workers)
	var (
		cursor  atomic.Int64
		stopAll atomic.Bool
		wg      sync.WaitGroup
		errMu   sync.Mutex
		poolErr error
	)
	rts := make([]*Runtime, workers)
	for w := 0; w < workers; w++ {
		wrt := &Runtime{Store: rt.Store, G: rt.G, Delta: rt.Delta, Gov: rt.Gov, Shard: rt.Shard}
		if rt.Trace != nil {
			wrt.Trace = new(Trace)
		}
		rts[w] = wrt
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Recover worker panics (whether from operator code, injected
			// faults, or a panicking emit that the caller chose not to
			// shield) so a poisoned query surfaces as an error on the
			// coordinating goroutine instead of crashing the process.
			defer func() {
				if r := recover(); r != nil {
					stopAll.Store(true)
					errMu.Lock()
					if poolErr == nil {
						poolErr = newPanicError(r)
					}
					errMu.Unlock()
				}
			}()
			if o.OnWorkerStart != nil {
				defer o.OnWorkerStart()()
			}
			if o.InjectWorkerFault != nil {
				o.InjectWorkerFault(w)
			}
			pl := wrt.pipelineFor(p)
			pl.stop, pl.emit = stop, emit
			pl.setAgg(spec)
			pl.beginRun()
			rootNext := pl.next[1]
			for !stopAll.Load() {
				m := int(cursor.Add(1)) - 1
				if m >= numMorsels {
					break
				}
				lo := m * morsel
				hi := lo + morsel
				if hi > size {
					hi = size
				}
				var ok bool
				if pl.tr != nil {
					// The worker loop bypasses step(0) (it drives the root
					// by range), so the traced path measures the root span
					// here: one call per morsel, inclusive deltas.
					sp := &pl.tr.spans[0]
					sp.Calls++
					pl.tr.Morsels++
					icost0, preds0 := wrt.ICost, wrt.PredEvals
					t0 := time.Now()
					ok = root.runRange(wrt, pl.scratch.op(0), pl.b, lo, hi, rootNext)
					sp.Nanos += int64(time.Since(t0))
					sp.ICost += wrt.ICost - icost0
					sp.PredEvals += wrt.PredEvals - preds0
				} else {
					ok = root.runRange(wrt, pl.scratch.op(0), pl.b, lo, hi, rootNext)
				}
				if !ok {
					// The pipeline aborted: emit returned false, or a mid-
					// morsel governor poll tripped. Park the whole pool.
					stopAll.Store(true)
					break
				}
				// Morsel boundary: publish this worker's counter deltas and
				// poll the governor, bounding cancellation latency by one
				// morsel of work.
				if pl.govEvery != 0 && !pl.govFlush() {
					stopAll.Store(true)
					break
				}
			}
			// Publish any tail counters so the governor's totals reflect the
			// work actually done (partial metrics on aborted executions).
			if pl.govEvery != 0 {
				pl.govFlush()
			}
			aggs[w] = pl.aggRes
		}(w)
	}
	wg.Wait()
	var res AggResult
	for w, wrt := range rts {
		res.Merge(aggs[w])
		rt.ICost += wrt.ICost
		rt.PredEvals += wrt.PredEvals
		if rt.Trace != nil && wrt.Trace != nil {
			rt.Trace.mergeWorker(wrt.Trace, w, aggs[w].Rows, wrt.ICost, wrt.PredEvals)
		}
	}
	return res, true, poolErr
}
