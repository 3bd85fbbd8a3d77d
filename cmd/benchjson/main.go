// Command benchjson converts `go test -bench` output into a
// benchstat-comparable JSON snapshot. It parses standard benchmark result
// lines ("BenchmarkName<tab>iters<tab>value unit ..."), groups repeated
// -count runs per benchmark, and, when an -old file with a previous
// snapshot's raw text is given, emits a per-benchmark comparison of mean
// ns/op with the speedup factor. The raw lines are preserved verbatim in
// the JSON so benchstat can be run on extracted old/new sections at any
// later point in the trajectory.
//
// With -baseline PREV.json and -gate Bench=maxpct it also acts as a CI
// regression gate: after writing the snapshot it compares each gated
// benchmark's min ns/op against the baseline snapshot and exits 3 when the
// regression exceeds the budget. A gated benchmark missing from either
// side fails the gate too: a gate that cannot run must not pass.
//
// Benchmarks are keyed by name without the "-N" GOMAXPROCS suffix go test
// appends on multi-core machines (as benchstat does), so snapshots taken
// at different core counts still line up; the GOMAXPROCS value itself is
// recorded in the env header. Input mixing several GOMAXPROCS values
// (go test -cpu lists) is rejected rather than merged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// run is one benchmark execution line: the iteration count plus every
// "value unit" metric pair that followed it.
type run struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// bench collects the -count repetitions of one benchmark.
type bench struct {
	Name string `json:"name"`
	Runs []run  `json:"runs"`
}

// comparison reports old-vs-new mean ns/op for one benchmark present in
// both snapshots.
type comparison struct {
	Name      string  `json:"name"`
	OldNsOp   float64 `json:"old_ns_op"`
	NewNsOp   float64 `json:"new_ns_op"`
	Speedup   float64 `json:"speedup"`
	OldAllocs float64 `json:"old_allocs_op,omitempty"`
	NewAllocs float64 `json:"new_allocs_op,omitempty"`
}

// pair compares two benchmarks inside the same snapshot — e.g. a feature
// toggled off vs on — reporting the variant's overhead over the base.
type pair struct {
	Base        string  `json:"base"`
	Variant     string  `json:"variant"`
	BaseNsOp    float64 `json:"base_ns_op"`
	VariantNsOp float64 `json:"variant_ns_op"`
	OverheadPct float64 `json:"overhead_pct"`
}

// scalingPoint is one (cluster size, cost) sample of a benchmark family.
type scalingPoint struct {
	Nodes int     `json:"nodes"`
	NsOp  float64 `json:"ns_op"`
}

// scalingFit summarizes how one benchmark family's ns/op grows with the
// "/nodes=N" parameter: the least-squares slope of ln(ns/op) against
// ln(N). An exponent near 1 is linear cost, near 0 is constant; anything
// clearly below 1 is sublinear.
type scalingFit struct {
	Family   string         `json:"family"`
	Points   []scalingPoint `json:"points"`
	Exponent float64        `json:"exponent"`
}

type snapshot struct {
	Label       string       `json:"label,omitempty"`
	Env         []string     `json:"env,omitempty"` // goos/goarch/pkg/cpu header lines
	Benchmarks  []bench      `json:"benchmarks"`
	Raw         []string     `json:"raw"`
	OldLabel    string       `json:"old_label,omitempty"`
	OldRaw      []string     `json:"old_raw,omitempty"`
	Comparisons []comparison `json:"comparisons,omitempty"`
	Pairs       []pair       `json:"pairs,omitempty"`
	Scaling     []scalingFit `json:"scaling,omitempty"`
}

// splitProcs splits a result-line benchmark name into its key (the name
// without the "-N" GOMAXPROCS suffix go test appends when GOMAXPROCS is
// not 1) and the GOMAXPROCS value (1 when absent).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 1
	}
	return name[:i], procs
}

// parse reads go-test bench output, returning header lines (plus a
// "gomaxprocs: N" line when any result was parsed), parsed benchmarks in
// first-seen order keyed without their GOMAXPROCS suffix, and the raw
// result lines.
func parse(r io.Reader) (env []string, benches []bench, raw []string, err error) {
	byName := map[string]int{}
	procs := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			env = append(env, line)
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, perr := strconv.ParseInt(fields[1], 10, 64)
		if perr != nil {
			continue
		}
		rn := run{Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, perr := strconv.ParseFloat(fields[i], 64)
			if perr != nil {
				break
			}
			rn.Metrics[fields[i+1]] = v
		}
		name, p := splitProcs(fields[0])
		if procs != 0 && p != procs {
			return nil, nil, nil, fmt.Errorf("%s ran at GOMAXPROCS %d, earlier results at %d: one snapshot holds one GOMAXPROCS", fields[0], p, procs)
		}
		procs = p
		raw = append(raw, line)
		idx, ok := byName[name]
		if !ok {
			idx = len(benches)
			byName[name] = idx
			benches = append(benches, bench{Name: name})
		}
		benches[idx].Runs = append(benches[idx].Runs, rn)
	}
	if procs != 0 {
		env = append(env, fmt.Sprintf("gomaxprocs: %d", procs))
	}
	return env, benches, raw, sc.Err()
}

// minMetric takes the minimum of one metric over a benchmark's runs — the
// least-noise estimate of a benchmark's true cost; ok is false when no run
// reported it.
func minMetric(b bench, unit string) (float64, bool) {
	best, n := 0.0, 0
	for _, r := range b.Runs {
		if v, found := r.Metrics[unit]; found {
			if n == 0 || v < best {
				best = v
			}
			n++
		}
	}
	return best, n > 0
}

// gateSpec is one -gate entry: fail when Name's min ns/op regresses more
// than MaxPct percent over the -baseline snapshot.
type gateSpec struct {
	Name   string
	MaxPct float64
}

// parseGates parses "-gate BenchmarkA=2,BenchmarkB=5".
func parseGates(s string) ([]gateSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []gateSpec
	for _, spec := range strings.Split(s, ",") {
		name, pctStr, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("-gate entry %q is not Bench=maxpct", spec)
		}
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil || pct < 0 {
			return nil, fmt.Errorf("-gate entry %q: bad percentage", spec)
		}
		out = append(out, gateSpec{Name: name, MaxPct: pct})
	}
	return out, nil
}

// checkGates compares min ns/op of each gated benchmark against the
// baseline snapshot, returning the failures. A benchmark absent from
// either side is a failure, not a skip: a gate that silently stops
// running is worse than none. Baseline names are keyed without their
// GOMAXPROCS suffix, so snapshots recorded before the suffix was stripped
// still match.
func checkGates(gates []gateSpec, baseline *snapshot, benches []bench) []string {
	baseBy := map[string]bench{}
	for _, b := range baseline.Benchmarks {
		name, _ := splitProcs(b.Name)
		baseBy[name] = b
	}
	newBy := map[string]bench{}
	for _, b := range benches {
		newBy[b.Name] = b
	}
	var failures []string
	for _, g := range gates {
		oldNs, ok1 := minMetric(baseBy[g.Name], "ns/op")
		newNs, ok2 := minMetric(newBy[g.Name], "ns/op")
		if !ok1 || oldNs == 0 {
			failures = append(failures, fmt.Sprintf("%s missing from the baseline snapshot", g.Name))
			continue
		}
		if !ok2 {
			failures = append(failures, fmt.Sprintf("%s missing from the current run", g.Name))
			continue
		}
		deltaPct := 100 * (newNs - oldNs) / oldNs
		if deltaPct > g.MaxPct {
			failures = append(failures, fmt.Sprintf("%s regressed %.2f%% (%.0f -> %.0f ns/op, budget %.1f%%)",
				g.Name, deltaPct, oldNs, newNs, g.MaxPct))
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s ok: %+.2f%% (%.0f -> %.0f ns/op, budget %.1f%%)\n",
				g.Name, deltaPct, oldNs, newNs, g.MaxPct)
		}
	}
	return failures
}

// buildPairs resolves "-pair Base=Variant,..." against one snapshot's
// benchmarks. A pair with either side missing from this run's pattern is
// left out.
func buildPairs(spec string, benches []bench) ([]pair, error) {
	byName := map[string]bench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []pair
	for _, entry := range strings.Split(spec, ",") {
		base, variant, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("-pair entry %q is not Base=Variant", entry)
		}
		baseNs, ok1 := meanMetric(byName[base], "ns/op")
		varNs, ok2 := meanMetric(byName[variant], "ns/op")
		if !ok1 || !ok2 || baseNs == 0 {
			continue
		}
		out = append(out, pair{
			Base:        base,
			Variant:     variant,
			BaseNsOp:    baseNs,
			VariantNsOp: varNs,
			OverheadPct: 100 * (varNs - baseNs) / baseNs,
		})
	}
	return out, nil
}

// meanMetric averages one metric over a benchmark's runs; ok is false when
// no run reported it.
func meanMetric(b bench, unit string) (float64, bool) {
	sum, n := 0.0, 0
	for _, r := range b.Runs {
		if v, found := r.Metrics[unit]; found {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// fitScaling groups benchmarks by the name prefix before a "/nodes=N"
// segment and fits each family's mean ns/op against N on log-log axes.
// Families with fewer than two distinct sizes are skipped (no slope to
// fit), as are runs without a parseable size or an ns/op metric.
func fitScaling(benches []bench) []scalingFit {
	type sample struct {
		nodes int
		nsOp  float64
	}
	families := map[string][]sample{}
	var order []string
	for _, b := range benches {
		idx := strings.Index(b.Name, "/nodes=")
		if idx < 0 {
			continue
		}
		rest := b.Name[idx+len("/nodes="):]
		if cut := strings.IndexByte(rest, '/'); cut >= 0 {
			rest = rest[:cut]
		}
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			continue
		}
		ns, ok := meanMetric(b, "ns/op")
		if !ok || ns <= 0 {
			continue
		}
		family := b.Name[:idx]
		if _, seen := families[family]; !seen {
			order = append(order, family)
		}
		families[family] = append(families[family], sample{nodes: n, nsOp: ns})
	}
	var out []scalingFit
	for _, family := range order {
		samples := families[family]
		if len(samples) < 2 {
			continue
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].nodes < samples[j].nodes })
		var sx, sy, sxx, sxy float64
		fit := scalingFit{Family: family}
		for _, s := range samples {
			x, y := math.Log(float64(s.nodes)), math.Log(s.nsOp)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			fit.Points = append(fit.Points, scalingPoint{Nodes: s.nodes, NsOp: s.nsOp})
		}
		n := float64(len(samples))
		denom := n*sxx - sx*sx
		if denom == 0 {
			continue // all runs share one size after dedup; no slope
		}
		fit.Exponent = (n*sxy - sx*sy) / denom
		out = append(out, fit)
	}
	return out
}

func main() {
	oldPath := flag.String("old", "", "previous snapshot's raw bench text to compare against")
	label := flag.String("label", "", "label for this snapshot (e.g. git revision)")
	oldLabel := flag.String("old-label", "", "label for the -old snapshot")
	pairsArg := flag.String("pair", "", "comma-separated Base=Variant benchmark pairs to compare within this snapshot")
	baselinePath := flag.String("baseline", "", "previous snapshot JSON to gate against (see -gate)")
	gateArg := flag.String("gate", "", "comma-separated Bench=maxpct regression budgets vs -baseline; exit 3 on breach")
	flag.Parse()

	gates, err := parseGates(*gateArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(gates) > 0 && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -gate requires -baseline")
		os.Exit(1)
	}

	env, benches, raw, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	snap := snapshot{Label: *label, Env: env, Benchmarks: benches, Raw: raw, OldLabel: *oldLabel}
	snap.Scaling = fitScaling(benches)

	if *pairsArg != "" {
		if snap.Pairs, err = buildPairs(*pairsArg, benches); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	if *oldPath != "" {
		f, err := os.Open(*oldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		_, oldBenches, oldRaw, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		snap.OldRaw = oldRaw
		oldBy := map[string]bench{}
		for _, b := range oldBenches {
			oldBy[b.Name] = b
		}
		for _, nb := range benches {
			ob, ok := oldBy[nb.Name]
			if !ok {
				continue
			}
			oldNs, ok1 := meanMetric(ob, "ns/op")
			newNs, ok2 := meanMetric(nb, "ns/op")
			if !ok1 || !ok2 || newNs == 0 {
				continue
			}
			c := comparison{Name: nb.Name, OldNsOp: oldNs, NewNsOp: newNs, Speedup: oldNs / newNs}
			if v, ok := meanMetric(ob, "allocs/op"); ok {
				c.OldAllocs = v
			}
			if v, ok := meanMetric(nb, "allocs/op"); ok {
				c.NewAllocs = v
			}
			snap.Comparisons = append(snap.Comparisons, c)
		}
		sort.Slice(snap.Comparisons, func(i, j int) bool {
			return snap.Comparisons[i].Speedup > snap.Comparisons[j].Speedup
		})
	}

	// The snapshot is written before any gate verdict so a regression run
	// still leaves a usable BENCH_N.json behind for diagnosis.
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if len(gates) > 0 {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var baseline snapshot
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		failures := checkGates(gates, &baseline, benches)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", f)
		}
		if len(failures) > 0 {
			os.Exit(3)
		}
	}
}
