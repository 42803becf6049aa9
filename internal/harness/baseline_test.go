package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baselineRows() []Row {
	return []Row{
		{Table: "table5", Dataset: "LJ", Config: "D", Query: "SQ1", Seconds: 1.0, Count: 100, ICost: 1000},
		{Table: "table5", Dataset: "LJ", Config: "D", Query: "SQ8", Seconds: 2.0, Count: 200, ICost: 2000},
		{Table: "table5", Dataset: "LJ", Config: "Dp", Query: "SQ1", Seconds: 0.5, Count: 100, ICost: 500},
	}
}

func TestCompareBaselineNoRegression(t *testing.T) {
	base := baselineRows()
	cur := baselineRows()
	cur[0].Seconds = 1.05 // within 10%
	cur[1].Seconds = 1.2  // faster
	var buf bytes.Buffer
	if n := CompareBaseline(&buf, base, cur, 0.10); n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions (3 rows compared)") {
		t.Errorf("missing summary line:\n%s", buf.String())
	}
}

func TestCompareBaselineDetects(t *testing.T) {
	base := baselineRows()
	cur := baselineRows()
	cur[0].Seconds = 1.2 // 20% slower: runtime regression
	cur[1].Count = 201   // wrong result: always a regression
	cur[2].ICost = 600   // 20% more list entries read
	var buf bytes.Buffer
	if n := CompareBaseline(&buf, base, cur, 0.10); n != 3 {
		t.Fatalf("regressions = %d, want 3\n%s", n, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "COUNT MISMATCH", "ICOST MISMATCH"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCompareBaselineICostExact: i-cost is deterministic, so any change —
// one entry more or one entry fewer — fails the gate until re-blessed.
func TestCompareBaselineICostExact(t *testing.T) {
	for _, delta := range []int64{1, -1} {
		cur := baselineRows()
		cur[2].ICost += delta
		var buf bytes.Buffer
		if n := CompareBaseline(&buf, baselineRows(), cur, -1); n != 1 {
			t.Fatalf("i-cost %+d: regressions = %d, want 1\n%s", delta, n, buf.String())
		}
	}
}

func TestCompareBaselineUnmatchedRows(t *testing.T) {
	base := baselineRows()
	cur := append(baselineRows(), Row{Table: "table5", Dataset: "LJ", Config: "N4", Query: "SQ1", Seconds: 3})
	cur = cur[1:] // drop base[0]: present in baseline only
	var buf bytes.Buffer
	if n := CompareBaseline(&buf, base, cur, 0.10); n != 0 {
		t.Fatalf("unmatched rows must not regress, got %d\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "new row") || !strings.Contains(out, "in baseline only") {
		t.Errorf("unmatched rows not reported:\n%s", out)
	}
}

func TestLoadRowsRoundTrip(t *testing.T) {
	rows := baselineRows()
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rows.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) || got[1] != rows[1] {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if _, err := LoadRows(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
}

func TestCompareBaselineNoiseFloor(t *testing.T) {
	// Rows under the runtime floor never regress on timing alone, however
	// bad the ratio, but still regress on count changes.
	base := []Row{
		{Table: "t", Dataset: "d", Config: "c", Query: "fast", Seconds: 0.00002, Count: 5, ICost: 10},
		{Table: "t", Dataset: "d", Config: "c", Query: "wrong", Seconds: 0.00002, Count: 5, ICost: 10},
	}
	cur := []Row{
		{Table: "t", Dataset: "d", Config: "c", Query: "fast", Seconds: 0.00009, Count: 5, ICost: 10},
		{Table: "t", Dataset: "d", Config: "c", Query: "wrong", Seconds: 0.00002, Count: 6, ICost: 10},
	}
	var buf bytes.Buffer
	if n := CompareBaseline(&buf, base, cur, 0.10); n != 1 {
		t.Fatalf("regressions = %d, want 1 (count mismatch only)\n%s", n, buf.String())
	}
}

func TestCompareBaselineAdvisoryRuntime(t *testing.T) {
	base := []Row{{Table: "t", Dataset: "d", Config: "c", Query: "q1", Seconds: 0.010, Count: 100, ICost: 1000}}
	cur := []Row{{Table: "t", Dataset: "d", Config: "c", Query: "q1", Seconds: 0.100, Count: 100, ICost: 1000}} // 10x slower, same count/icost
	var buf bytes.Buffer
	if n := CompareBaseline(&buf, base, cur, -1); n != 0 {
		t.Fatalf("advisory runtime must not regress, got %d:\n%s", n, buf.String())
	}
	cur[0].ICost = 5000 // i-cost still gates
	buf.Reset()
	if n := CompareBaseline(&buf, base, cur, -1); n != 1 {
		t.Fatalf("i-cost regression missed under advisory runtime, got %d:\n%s", n, buf.String())
	}
}
