// Command perfbench is the repository benchmark. It runs one named workload
// against the engine from a single load-generating process, checks every
// answer, and prints its metrics; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload analytic|served|mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics: it records spans
// around calls into each layer, keeps them in memory and writes them to
// <workdir>/spans/ at the end. Run it through run.sh, which builds this
// program and aplusd from the checkout first. README.md maps each layer
// metric to the end-to-end metric it should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

var workloads = map[string]func(config, *result) error{
	"analytic": runAnalytic,
	"served":   runServed,
	"mixed":    runMixed,
}

type config struct {
	seed   int64
	dur    time.Duration
	trace  bool
	aplusd string
	work   string
}

func main() {
	name := flag.String("workload", "", "workload to run: analytic, served or mixed")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	aplusd := flag.String("aplusd", ".bench_build/bin/aplusd", "aplusd binary (served workload and traced runs)")
	work := flag.String("workdir", ".bench_build", "directory for databases and span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	c := config{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, aplusd: *aplusd, work: *work}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (analytic, served, mixed)\n", *name)
		os.Exit(2)
	}
	res := newResult()
	if err := run(c, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// closedLoop runs body on n goroutines, each issuing its next operation
// only after the previous one returned, until d has passed.
func closedLoop(n int, d time.Duration, body func(worker int)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body(w)
			}
		}(w)
	}
	wg.Wait()
}

// sample is one operation: when it ended and how long it took.
type sample struct {
	end time.Time
	d   time.Duration
}

// lats collects one worker's samples and errors.
type lats struct {
	s    []sample
	errs []error
}

func (l *lats) add(start time.Time, err error) {
	now := time.Now()
	l.s = append(l.s, sample{now, now.Sub(start)})
	l.errs = append(l.errs, err)
}

// merge counts every operation in res and returns all samples.
func merge(ls []lats, res *result) []sample {
	var all []sample
	for _, l := range ls {
		all = append(all, l.s...)
		for _, err := range l.errs {
			res.op(err)
		}
	}
	return all
}

// window is a slice of the measured interval.
type window struct{ from, to time.Time }

// windowsPerRun is how many windows a timed loop is split into.
const windowsPerRun = 10

// chunked splits the time from start to the last sample into n windows
// holding equal numbers of samples, so each window's rate is a count over
// a measured span rather than over a fixed second.
func chunked(ss []sample, start time.Time, n int) []window {
	ends := make([]time.Time, len(ss))
	for i, s := range ss {
		ends[i] = s.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	if len(ends) < n {
		n = 1
	}
	var ws []window
	from := start
	for k := 1; k <= n && len(ends) > 0; k++ {
		to := ends[k*len(ends)/n-1].Add(time.Nanosecond)
		ws = append(ws, window{from, to})
		from = to
	}
	return ws
}

func (w window) of(ss []sample) []sample {
	var in []sample
	for _, s := range ss {
		if !s.end.Before(w.from) && s.end.Before(w.to) {
			in = append(in, s)
		}
	}
	return in
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.d)
	}
	return out
}

// rate is the median over windows of operations completed per second.
func rate(ss []sample, ws []window) float64 {
	var rs []float64
	for _, w := range ws {
		rs = append(rs, float64(len(w.of(ss)))/w.to.Sub(w.from).Seconds())
	}
	return median(rs)
}

// reportReads emits the read-side end-to-end metrics. Rates are medians
// over windows, so a burst of load from outside the benchmark moves them
// less. read_tail_ms is the tail percentile, chosen per workload as the
// highest with at least ten samples beyond it: the median over windows of
// each window's value when windows hold enough samples, else over the run.
func reportReads(res *result, reads []sample, ws []window, tail float64) {
	var tails []float64
	perWindow := len(ws) > 0 && len(reads)/len(ws) >= int(10/(1-tail))
	if perWindow {
		for _, w := range ws {
			tails = append(tails, quantile(latencies(w.of(reads)), tail))
		}
	}
	l := latencies(reads)
	if !perWindow {
		tails = []float64{quantile(l, tail)}
	}
	res.report("reads_per_s", rate(reads, ws), "1/s", len(reads), false)
	res.report("read_p50_ms", median(l), "ms", len(l), false)
	res.report("read_tail_ms", median(tails), "ms", len(l), false)
	fmt.Printf("windows: %d, tail p%.0f (%s)\n", len(ws), tail*100, map[bool]string{true: "per window", false: "whole run"}[perWindow])
	if beyond := int(float64(len(l)) * (1 - tail)); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p%.0f\n", beyond, tail*100)
	}
}

// reportSetup emits setup_s, index_mb and peak_rss_mb.
func reportSetup(res *result, setups []float64, indexBytes int64, rssMB float64) {
	res.report("setup_s", median(setups), "s", len(setups), false)
	res.report("index_mb", float64(indexBytes)/(1<<20), "MB", 0, true)
	res.report("peak_rss_mb", rssMB, "MB", 0, false)
}

// selfPeak reports set-up metrics for a workload whose data lives in this
// process.
func selfPeak(res *result, setups []float64, indexBytes int64) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	reportSetup(res, setups, indexBytes, rss)
	return nil
}

// release drops garbage from a discarded set-up, so every set-up starts
// from the same heap.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}
