package harness

// Stored-baseline comparison for cmd/aplusbench: load the JSON row dump of
// an earlier run (-json) and diff a fresh run against it, so performance
// trajectories across commits are checked mechanically instead of by
// eyeballing tables (the ROADMAP's "wire a stored-baseline comparison"
// item).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// LoadRows reads a row dump written by cmd/aplusbench -json.
func LoadRows(path string) ([]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return rows, nil
}

// rowKey identifies a measurement across runs.
func rowKey(r Row) string {
	return r.Table + "/" + r.Dataset + "/" + r.Config + "/" + r.Query
}

// minCompareSeconds is the runtime floor for regression decisions: rows
// where both runs finish faster than this are dominated by timer and
// scheduler noise, so their runtime ratio is reported but never fails the
// gate (count and i-cost checks, which are deterministic, still apply).
const minCompareSeconds = 1e-3

// CompareBaseline diffs cur against base row-by-row (matched on
// table/dataset/config/query) and prints per-row runtime deltas. A row
// regresses when its count differs from base (index and executor changes
// must never change results), when its i-cost differs in either direction
// (i-cost is deterministic, so a change means a changed plan or executor,
// which is re-blessed on purpose), or when it runs slower than
// base*(1+tolerance) (unless both runs sit under the minCompareSeconds
// noise floor). A negative tolerance makes the runtime
// comparison advisory-only (reported, never failing): wall-clock from a
// dump blessed on different hardware — the CI gate — cannot be compared
// meaningfully. The returned value is the number of regressed rows —
// callers exit non-zero when it is positive. Rows present in only one of
// the runs are reported but never regress (experiments evolve).
func CompareBaseline(w io.Writer, base, cur []Row, tolerance float64) int {
	if w == nil {
		w = io.Discard
	}
	baseByKey := map[string]Row{}
	for _, r := range base {
		baseByKey[rowKey(r)] = r
	}
	if tolerance < 0 {
		fmt.Fprintf(w, "\n=== baseline comparison (runtime advisory, counts and i-cost exact) ===\n")
	} else {
		fmt.Fprintf(w, "\n=== baseline comparison (tolerance %.0f%%, counts and i-cost exact) ===\n", tolerance*100)
	}
	regressions := 0
	matched := map[string]bool{}
	// Compare in the current run's order for stable, readable output.
	for _, r := range cur {
		k := rowKey(r)
		b, ok := baseByKey[k]
		if !ok {
			fmt.Fprintf(w, "%-40s %10s -> %8.4fs  (new row)\n", k, "-", r.Seconds)
			continue
		}
		matched[k] = true
		switch {
		case r.Count != b.Count:
			regressions++
			fmt.Fprintf(w, "%-40s COUNT MISMATCH: %d -> %d\n", k, b.Count, r.Count)
		case r.ICost != b.ICost:
			regressions++
			fmt.Fprintf(w, "%-40s ICOST MISMATCH: %d -> %d\n", k, b.ICost, r.ICost)
		case tolerance >= 0 && b.Seconds > 0 && r.Seconds > b.Seconds*(1+tolerance) &&
			(b.Seconds >= minCompareSeconds || r.Seconds >= minCompareSeconds):
			regressions++
			fmt.Fprintf(w, "%-40s %8.4fs -> %8.4fs  (%.2fx) REGRESSION\n",
				k, b.Seconds, r.Seconds, r.Seconds/b.Seconds)
		default:
			ratio := 1.0
			if b.Seconds > 0 {
				ratio = r.Seconds / b.Seconds
			}
			fmt.Fprintf(w, "%-40s %8.4fs -> %8.4fs  (%.2fx) ok\n", k, b.Seconds, r.Seconds, ratio)
		}
	}
	var missing []string
	for k := range baseByKey {
		if !matched[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		fmt.Fprintf(w, "%-40s (in baseline only)\n", k)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d row(s) regressed\n", regressions)
	} else {
		fmt.Fprintf(w, "no regressions (%d rows compared)\n", len(matched))
	}
	return regressions
}
