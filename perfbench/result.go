package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number; the final JSON line carries only value
// and unit, while samples and exact feed the human-readable lines above it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
	exact   bool
}

// result is one run's report. Metrics set with report reach the final JSON
// line; those set with note are printed for people only, because the
// benchmark's declared metric list must hold on every workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order      []string
	notes      []string
	mismatches int
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// report records a metric for the final JSON line. samples is the number of
// observations behind it (0 when it is a single measurement or a count);
// exact marks values that repeat bit-for-bit for a given seed.
func (r *result) report(name string, v float64, unit string, samples int, exact bool) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, samples: samples, exact: exact}
}

// note prints a metric without putting it in the JSON line.
func (r *result) note(name string, v float64, unit string, samples int) {
	r.notes = append(r.notes, fmt.Sprintf("%-40s %16.6f %-6s n=%d (printed only)", name, v, unit, samples))
}

// fail marks the run incorrect; the first 20 mismatches are printed to
// stderr.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.mismatches++
	if r.mismatches <= 20 {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if r.Failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		}
	}
}

func (r *result) write(w io.Writer) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		tag := ""
		if m.exact {
			tag = " exact"
		}
		fmt.Fprintf(w, "%-40s %16.6f %-6s n=%d%s\n", name, m.Value, m.Unit, m.samples, tag)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-40s %16.6f %-6s n=%d (printed only)\n", "failed_frac", frac, "ratio", r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms, us and ns convert durations to float64 in the named unit.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func durationsIn(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// procField reads one "Key: value kB"-style field from a /proc file.
func procField(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// peakRSSMB is VmHWM of a process in MiB ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	kb, err := procField("/proc/"+pid+"/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// writtenBytes is this process's wchar from /proc/self/io: every byte handed
// to write-family system calls, whatever device it lands on.
func writtenBytes() (int64, error) { return procField("/proc/self/io", "wchar") }
