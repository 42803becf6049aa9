package exec

// Per-operator query tracing (EXPLAIN ANALYZE). A Trace is armed by setting
// Runtime.Trace before an execution; the pipeline then wraps every operator
// call (stepTraced) and every folded suffix operator (inside aggFold) in
// span measurement — invocation count, produced rows, i-cost and
// predicate-evaluation deltas, and wall time — plus a final span for the
// sink; the operators and the fold run the same code either way. Workers of
// a morsel-parallel execution each record into their own Trace, merged into
// the root's after the barrier exactly like ICost and PredEvals, so traced
// metric sums are bit-identical to an untraced profiled run at any worker
// count.
//
// A nil Runtime.Trace (the default) is the disarmed state: the only cost on
// the untraced path is one pointer test per pipeline step and one per
// morsel, and zero allocations (pinned by TestZeroAllocDisarmedTrace).

// OpSpan is one operator's accumulated measurements. During execution the
// pipeline records *inclusive* figures (an operator's span covers its whole
// downstream chain, since operators invoke their continuation in-line);
// Trace.Report derives the per-operator exclusive spans.
type OpSpan struct {
	// Calls is the number of times the operator ran: tuples it consumed,
	// morsels for the root scan of a parallel execution, fetches for a
	// folded suffix operator, boundary tuples for the sink.
	Calls int64
	// Rows is the number of tuples the operator produced (for the sink:
	// matches counted or emitted).
	Rows int64
	// ICost and PredEvals are the adjacency entries read and predicates
	// evaluated, attributed to this operator.
	ICost     int64
	PredEvals int64
	// Nanos is wall time attributed to this operator.
	Nanos int64
}

func (s *OpSpan) add(o OpSpan) {
	s.Calls += o.Calls
	s.Rows += o.Rows
	s.ICost += o.ICost
	s.PredEvals += o.PredEvals
	s.Nanos += o.Nanos
}

// WorkerSpan is one worker's share of a traced parallel execution.
type WorkerSpan struct {
	// Worker is the pool index (0 for the serial path).
	Worker int
	// Morsels is the number of root-scan morsels the worker processed.
	Morsels int64
	// Rows is the worker's produced-match count (aggregate fold only).
	Rows int64
	// ICost, PredEvals, and Nanos are the worker's metric and wall-time
	// totals; Nanos is time spent inside the pipeline, excluding morsel
	// dispatch waits.
	ICost     int64
	PredEvals int64
	Nanos     int64
}

// Trace accumulates one execution's spans. Arm it by setting Runtime.Trace
// to a fresh Trace before Count/Execute (or their parallel variants); read
// it back with Report after the execution returns. A Trace must not be
// shared by concurrent executions; re-running resets it.
type Trace struct {
	// spans[i] holds operator i's inclusive measurements; the final element
	// is the sink (aggregate fold or emit).
	spans []OpSpan
	// foldStart is the pipeline's sink boundary for this run: operators at
	// foldStart.. were folded arithmetically by count pushdown.
	foldStart int
	nops      int

	// Morsels counts root-scan morsels processed (0 on the serial path).
	Morsels int64
	// Workers is the per-worker split of a parallel execution (empty on the
	// serial path), in worker order.
	Workers []WorkerSpan
}

// arm sizes and resets the span table for a run over nops operators with
// the sink taking over at stop.
func (t *Trace) arm(nops, stop int) {
	t.nops = nops
	t.foldStart = stop
	if cap(t.spans) < nops+1 {
		t.spans = make([]OpSpan, nops+1)
	} else {
		t.spans = t.spans[:nops+1]
		for i := range t.spans {
			t.spans[i] = OpSpan{}
		}
	}
	t.Morsels = 0
	t.Workers = t.Workers[:0]
}

// mergeWorker folds one worker's trace into the root trace, mirroring the
// ICost/PredEvals merge of the untraced parallel path, and appends the
// worker's split. rows/icost/preds are the worker Runtime's final totals.
func (t *Trace) mergeWorker(w *Trace, worker int, rows, icost, preds int64) {
	if len(t.spans) < len(w.spans) {
		t.arm(w.nops, w.foldStart)
	}
	for i := range w.spans {
		t.spans[i].add(w.spans[i])
	}
	t.Morsels += w.Morsels
	var nanos int64
	if len(w.spans) > 0 {
		nanos = w.spans[0].Nanos // inclusive root span = worker pipeline time
	}
	t.Workers = append(t.Workers, WorkerSpan{
		Worker: worker, Morsels: w.Morsels, Rows: rows,
		ICost: icost, PredEvals: preds, Nanos: nanos,
	})
}

// FoldStart returns the index of the first operator folded by count
// pushdown in the traced run (== the number of operators when nothing
// folded).
func (t *Trace) FoldStart() int { return t.foldStart }

// Report derives the per-operator *exclusive* spans from the recorded
// inclusive ones: ops[i] for plan operator i, plus a final element for the
// sink. Because an operator's only caller is its upstream neighbour, the
// exclusive figures telescope exactly — summing ICost (or PredEvals) over
// every returned span reproduces the execution's total bit-identically.
// Rows for non-folded operators is derived from the downstream operator's
// call count; wall-time differences are clamped at zero against clock
// jitter (metric counters never need clamping — they are monotonic).
func (t *Trace) Report() []OpSpan {
	n := t.nops
	if len(t.spans) < n+1 {
		return nil // never armed (e.g. empty execution)
	}
	out := make([]OpSpan, n+1)
	copy(out, t.spans)
	sink := n
	// Folded suffix operators were measured exclusively by the fold loop;
	// subtract their share from the sink's inclusive span.
	var folded OpSpan
	for i := t.foldStart; i < n; i++ {
		folded.ICost += t.spans[i].ICost
		folded.PredEvals += t.spans[i].PredEvals
		folded.Nanos += t.spans[i].Nanos
	}
	out[sink].ICost -= folded.ICost
	out[sink].PredEvals -= folded.PredEvals
	if out[sink].Nanos -= folded.Nanos; out[sink].Nanos < 0 {
		out[sink].Nanos = 0
	}
	// Interior operators: exclusive = own inclusive − child's inclusive.
	for i := 0; i < t.foldStart; i++ {
		child := t.spans[sink]
		if i+1 < t.foldStart {
			child = t.spans[i+1]
		}
		out[i].ICost -= child.ICost
		out[i].PredEvals -= child.PredEvals
		if out[i].Nanos -= child.Nanos; out[i].Nanos < 0 {
			out[i].Nanos = 0
		}
		out[i].Rows = child.Calls
	}
	return out
}
