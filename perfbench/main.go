// Command perfbench is the repository benchmark. It drives the simulator
// only through its public package APIs: it runs one workload as a closed
// loop of simulation cells, checks every cell's result against committed
// reference digests, and prints the end-to-end host-time metrics. With
// -trace 1 it instead times the calls into each layer from outside the
// program and prints the per-layer ledger.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload paper-grid --seed 42 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// heldOutSeed is kept out of development runs: later performance claims
// are checked on it as well as on the seeds they were tuned with.
const heldOutSeed = 57

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: paper-grid, ramp-fine, pressured-fine or whatif-fork")
		seed    = fs.Int64("seed", 42, "workload seed; inputs are generated from it")
		seconds = fs.Int("seconds", 10, "measurement budget in seconds")
		traced  = fs.Int("trace", 0, "1 prints the per-layer ledger from a traced run")
		commit  = fs.String("commit", "unknown", "commit of the measured source, for the record")
		regen   = fs.String("regen", "", "write reference digests for every seed class to this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if *regen != "" {
		return regenerate(*regen, procs)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", *traced)
	}
	ref, err := parseReference(referenceText)
	if err != nil {
		return err
	}
	in := inputSeed(*seed)
	fmt.Printf("perfbench workload=%s seed=%d input-seed=%d held-out-seed=%d trace=%d\n",
		w.name, *seed, in, heldOutSeed, *traced)
	fmt.Printf("env commit=%s go=%s nproc=%d GOMAXPROCS=%d\n",
		*commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	budget := time.Duration(*seconds) * time.Second
	var out result
	if *traced == 1 {
		out, err = tracedRun(w, in, budget, ref)
	} else {
		out, err = timedRun(w, in, budget, ref)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measuredPass is one set-up plus one pass over the workload's cells.
type measuredPass struct {
	setup   time.Duration
	wall    time.Duration // calibration samples excluded
	allocMB float64
	cal     *calibrator // nil for a traced pass
	results []cellResult
}

// measure sets up and runs one pass, calibrated when k is given. The heap
// is collected before set-up and before the pass, so neither pays for
// garbage the other left.
func measure(w workloadDef, seed int64, lg *ledger, k *calKernel) (measuredPass, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := w.setup(seed, lg)
	if err != nil {
		return measuredPass{}, fmt.Errorf("set-up: %w", err)
	}
	mp := measuredPass{setup: time.Since(t0)}
	runtime.GC()
	if k != nil {
		mp.cal = newCalibrator(k)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	mp.results = p.run(mp.cal)
	mp.wall = time.Since(t1)
	if mp.cal != nil {
		mp.cal.cut()
		raw, _ := mp.cal.wall()
		mp.wall = time.Duration(raw * float64(time.Second))
	}
	runtime.ReadMemStats(&m1)
	mp.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return mp, nil
}

// verify checks one pass against the references (and, for a traced pass,
// against the timed pass of the same cells) and prints the first failure.
// A seed-42 paper-grid pass must also reproduce the published figures;
// if it does not, every cell of the pass counts as failed.
func verify(w workloadDef, seed int64, mp measuredPass, ref, timed map[string]string) int {
	failed, first := check(mp.results, ref, timed)
	if first != nil {
		fmt.Printf("FAIL %s (%d cells failed)\n", first, failed)
	}
	if w.name == "paper-grid" && seed == figureSeed {
		if err := checkFigures(mp.results); err != nil {
			fmt.Printf("FAIL figures at seed %d: %v\n", seed, err)
			return len(mp.results)
		}
	}
	return failed
}

// timedRun measures passes with tracing off, at least the workload's
// minimum number of passes and then as many more as the budget has room
// for, judged by the duration of the previous one. Host times are divided
// by the host's slowdown while they were measured (see calib.go).
func timedRun(w workloadDef, seed int64, budget time.Duration, ref map[string]string) (result, error) {
	start := time.Now()
	k := newCalKernel()
	var walls, rawWalls, setups, allocs, slowdowns []float64
	byCell := make(map[string][]float64)
	var out result
	var last time.Duration
	for i := 0; i < w.minPasses || time.Since(start)+last <= budget; i++ {
		t0 := time.Now()
		mp, err := measure(w, seed, nil, k)
		if err != nil {
			return result{}, err
		}
		failed := verify(w, seed, mp, ref, nil)
		out.Attempted += len(mp.results)
		out.Failed += failed
		raw, calibrated := mp.cal.wall()
		walls = append(walls, calibrated)
		rawWalls = append(rawWalls, raw)
		setups = append(setups, mp.setup.Seconds()/mp.cal.samples[0])
		allocs = append(allocs, mp.allocMB)
		slowdowns = append(slowdowns, mp.cal.samples...)
		for _, r := range mp.results {
			ms := float64(r.dur.Nanoseconds()) / 1e6
			byCell[r.key] = append(byCell[r.key], ms/mp.cal.factor(r.segment))
		}
		last = time.Since(t0)
	}
	// A cell's host time is its median over the run's passes, so a slow
	// spell of the host during one pass does not make a tail.
	cells := make([]float64, 0, len(byCell))
	for _, v := range byCell {
		cells = append(cells, median(v))
	}
	if w.name == "paper-grid" && seed == figureSeed && out.Failed == 0 {
		fmt.Printf("figures: seed %d reproduces the Figure 1-4 rows of docs/vrbench_output.txt\n", seed)
	}
	out.Correct = out.Failed == 0
	q := tailPercentile(len(cells))
	out.Metrics = map[string]metric{
		"wall_s":       {median(walls), "s"},
		"cell_ms_p50":  {median(cells), "ms"},
		"cell_ms_tail": {percentile(cells, q), "ms"},
		"setup_s":      {median(setups), "s"},
		"alloc_mb":     {median(allocs), "MB"},
	}
	fmt.Printf("passes=%d cells/pass=%d attempted=%d failed=%d\n", len(walls), len(cells), out.Attempted, out.Failed)
	printMetrics(out.Metrics)
	fmt.Printf("  %-26s p%d of %d cells, each its median over %d passes\n", "(cell_ms_tail)", q, len(cells), len(walls))
	fmt.Printf("  %-26s %.6f ratio\n", "cell_fail_ratio", float64(out.Failed)/float64(out.Attempted))
	fmt.Printf("  host times are calibrated: median host slowdown %.4f over %d samples; raw wall_s %.4f s\n",
		median(slowdowns), len(slowdowns), median(rawWalls))
	return out, nil
}

// tailPercentile is the highest whole percentile that leaves at least ten
// of n cells above it.
func tailPercentile(n int) int {
	return 100 * (n - 10) / n
}

// tracedRun alternates a timed pass and a traced pass while the budget
// has room for another pair. The traced pass wraps every policy in the
// probe; its digests must equal the timed pass's, which shows that the
// probe perturbs nothing.
func tracedRun(w workloadDef, seed int64, budget time.Duration, ref map[string]string) (result, error) {
	start := time.Now()
	total := &ledger{}
	var timedWalls, tracedWalls []float64
	var out result
	passes := 0
	var last time.Duration
	for passes == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		tp, err := measure(w, seed, nil, nil)
		if err != nil {
			return result{}, err
		}
		out.Failed += verify(w, seed, tp, ref, nil)
		out.Attempted += len(tp.results)
		mp, err := measure(w, seed, total, nil)
		if err != nil {
			return result{}, err
		}
		if total.err != nil {
			return result{}, fmt.Errorf("probe: %w", total.err)
		}
		out.Failed += verify(w, seed, mp, ref, digests(tp.results))
		out.Attempted += len(mp.results)
		total.wall += mp.wall
		timedWalls = append(timedWalls, tp.wall.Seconds())
		tracedWalls = append(tracedWalls, mp.wall.Seconds())
		passes++
		last = time.Since(t0)
	}
	out.Correct = out.Failed == 0
	clock := clockReadNs()
	total.clockNs, total.spanNs = clock, emptySpanNs()
	events, err := captureEvents(seed)
	if err != nil {
		return result{}, err
	}
	series, flight, buffer := emitNs(events)
	wall := median(timedWalls)
	m := layerMetrics(total, passes)
	eventNs := engineEventNs()
	m["sim.ns_per_event_isolated"] = metric{eventNs, "ns"}
	m["obs.emit_ns.series"] = metric{series, "ns"}
	m["obs.emit_ns.flight"] = metric{flight, "ns"}
	m["obs.emit_ns.buffer"] = metric{buffer, "ns"}
	m["bench.trace_overhead_pct"] = metric{100 * (median(tracedWalls) - wall) / wall, "%"}
	m["bench.clock_read_ns"] = metric{clock, "ns"}
	m["bench.clock_span_ns"] = metric{total.spanNs, "ns"}
	out.Metrics = m
	fmt.Printf("traced passes=%d attempted=%d failed=%d (traced digests checked against the timed pass)\n",
		passes, out.Attempted, out.Failed)
	printMetrics(m)
	printLedger(w.name, total, passes, wall, eventNs, len(events))
	return out, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-26s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank q-th percentile of v.
func percentile(v []float64, q int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := (q*len(s) + 99) / 100
	return s[max(rank, 1)-1]
}
