package main

import (
	"strings"
	"testing"
)

func benchWith(name string, nsOps ...float64) bench {
	b := bench{Name: name}
	for _, v := range nsOps {
		b.Runs = append(b.Runs, run{Iterations: 1, Metrics: map[string]float64{"ns/op": v}})
	}
	return b
}

func TestParseGates(t *testing.T) {
	gates, err := parseGates("BenchmarkClusterRun=2,BenchmarkOther=5.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 2 || gates[0].Name != "BenchmarkClusterRun" || gates[0].MaxPct != 2 || gates[1].MaxPct != 5.5 {
		t.Fatalf("gates = %+v", gates)
	}
	if g, err := parseGates(""); err != nil || g != nil {
		t.Fatalf("empty spec: %v %v", g, err)
	}
	for _, bad := range []string{"NoEquals", "Bench=abc", "Bench=-1"} {
		if _, err := parseGates(bad); err == nil {
			t.Errorf("parseGates(%q): want error", bad)
		}
	}
}

func TestCheckGates(t *testing.T) {
	baseline := &snapshot{Benchmarks: []bench{benchWith("BenchmarkClusterRun", 110, 100, 105)}}
	gates := []gateSpec{{Name: "BenchmarkClusterRun", MaxPct: 2}}

	// Within budget: min 101 vs min 100 is +1%.
	ok := []bench{benchWith("BenchmarkClusterRun", 101, 140)}
	if fails := checkGates(gates, baseline, ok); len(fails) != 0 {
		t.Fatalf("within-budget run failed: %v", fails)
	}

	// Past budget: min 103 vs 100 is +3%.
	slow := []bench{benchWith("BenchmarkClusterRun", 103, 150)}
	fails := checkGates(gates, baseline, slow)
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkClusterRun regressed 3.00%") {
		t.Fatalf("fails = %v", fails)
	}

	// Missing from the current run: the gate cannot run, so it fails.
	if fails := checkGates(gates, baseline, nil); len(fails) != 1 || !strings.Contains(fails[0], "missing from the current run") {
		t.Fatalf("missing bench: fails = %v", fails)
	}
	// Missing from the baseline: also a failure.
	if fails := checkGates(gates, &snapshot{}, ok); len(fails) != 1 || !strings.Contains(fails[0], "missing from the baseline") {
		t.Fatalf("missing baseline: fails = %v", fails)
	}
	// A baseline recorded with the GOMAXPROCS suffix still matches.
	suffixed := &snapshot{Benchmarks: []bench{benchWith("BenchmarkClusterRun-2", 100)}}
	if fails := checkGates(gates, suffixed, ok); len(fails) != 0 {
		t.Fatalf("suffixed baseline: fails = %v", fails)
	}
}

func TestMinMetric(t *testing.T) {
	b := benchWith("X", 5, 3, 9)
	if v, ok := minMetric(b, "ns/op"); !ok || v != 3 {
		t.Fatalf("min = %v ok=%v", v, ok)
	}
	if _, ok := minMetric(b, "allocs/op"); ok {
		t.Fatal("missing metric reported ok")
	}
	if _, ok := minMetric(bench{}, "ns/op"); ok {
		t.Fatal("empty bench reported ok")
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkClusterRun-2", "BenchmarkClusterRun", 2},
		{"BenchmarkClusterRun", "BenchmarkClusterRun", 1},
		{"BenchmarkScaleRun/nodes=1000-16", "BenchmarkScaleRun/nodes=1000", 16},
		{"BenchmarkScaleRun/nodes=1000", "BenchmarkScaleRun/nodes=1000", 1},
		{"BenchmarkX-", "BenchmarkX-", 1},
		{"BenchmarkX-0", "BenchmarkX-0", 1},
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

// TestParseMultiCoreOutput feeds go test output from a 2-CPU machine
// through every consumer of benchmark names: keys, env, pairs, scaling
// fits and the gate.
func TestParseMultiCoreOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: vrcluster
cpu: Example CPU @ 2.00GHz
BenchmarkClusterRun-2         	       1	   9000000 ns/op	 1200 B/op	  30 allocs/op
BenchmarkClusterRunTraced-2   	       1	   9900000 ns/op
BenchmarkClusterRun-2         	       1	   8000000 ns/op	 1200 B/op	  30 allocs/op
BenchmarkScaleRun/nodes=100-2 	       1	      1000 ns/op
BenchmarkScaleRun/nodes=1000-2	       1	     10000 ns/op
PASS
`
	env, benches, raw, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 5 {
		t.Fatalf("raw = %d lines, want 5", len(raw))
	}
	if got := env[len(env)-1]; got != "gomaxprocs: 2" {
		t.Fatalf("env = %q, want a trailing gomaxprocs: 2", env)
	}
	var names []string
	for _, b := range benches {
		names = append(names, b.Name)
	}
	want := []string{"BenchmarkClusterRun", "BenchmarkClusterRunTraced", "BenchmarkScaleRun/nodes=100", "BenchmarkScaleRun/nodes=1000"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("keys = %v, want %v", names, want)
	}
	if len(benches[0].Runs) != 2 {
		t.Fatalf("BenchmarkClusterRun has %d runs, want 2", len(benches[0].Runs))
	}

	pairs, err := buildPairs("BenchmarkClusterRun=BenchmarkClusterRunTraced,BenchmarkA=BenchmarkB", benches)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].BaseNsOp != 8500000 || pairs[0].OverheadPct < 16.4 || pairs[0].OverheadPct > 16.5 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if _, err := buildPairs("NoEquals", benches); err == nil {
		t.Fatal("malformed -pair accepted")
	}

	if fits := fitScaling(benches); len(fits) != 1 || fits[0].Exponent < 0.99 || fits[0].Exponent > 1.01 {
		t.Fatalf("scaling = %+v", fits)
	}

	baseline := &snapshot{Benchmarks: []bench{benchWith("BenchmarkClusterRun", 7900000)}}
	if fails := checkGates([]gateSpec{{Name: "BenchmarkClusterRun", MaxPct: 2}}, baseline, benches); len(fails) != 0 {
		t.Fatalf("gate on suffixed input: %v", fails)
	}
}

func TestParseRejectsMixedProcs(t *testing.T) {
	const out = "BenchmarkClusterRun-2\t1\t100 ns/op\nBenchmarkClusterRun-4\t1\t90 ns/op\n"
	if _, _, _, err := parse(strings.NewReader(out)); err == nil {
		t.Fatal("output mixing GOMAXPROCS 2 and 4 was merged")
	}
	env, _, _, err := parse(strings.NewReader("BenchmarkClusterRun\t1\t100 ns/op\n"))
	if err != nil || len(env) != 1 || env[0] != "gomaxprocs: 1" {
		t.Fatalf("single-core output: env %q err %v", env, err)
	}
}
