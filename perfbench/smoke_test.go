package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks runs against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every declared workload for one second, untraced and
// traced, with the correctness gates on, and checks that the final JSON
// line carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "aplusd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/aplusdb/aplus/cmd/aplusd").CombinedOutput(); err != nil {
		t.Fatalf("build aplusd: %v\n%s", err, out)
	}
	for _, w := range s.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json declares workload %q, which perfbench does not run", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				c := config{seed: 7, dur: time.Second, trace: traced, aplusd: bin, work: dir}
				res := newResult()
				if err := run(c, res); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.write(&buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				var out struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := dec.Decode(&out); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", m.Name)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					spans := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, c.seed))
					if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
						t.Errorf("span file %s missing or empty: %v", spans, err)
					}
				}
			})
		}
	}
}
