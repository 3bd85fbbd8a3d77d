package main

import (
	"bytes"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/experiments"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// jsonl encodes a cluster's retained event trace.
func jsonl(t *testing.T, c *cluster.Cluster) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b, c.Tracer().Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// tracedCell builds a fresh cell whose cluster retains every event.
func tracedCell(t *testing.T, pol string, tr *trace.Trace, lg *ledger) *freshCell {
	t.Helper()
	cfg := cluster.Cluster1()
	cfg.Quantum = fineQuantum
	cfg.Obs = obs.NewTracer(0)
	fc, err := newCell("test", pol, cfg, tr.Clone(), lg)
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

func pressuredTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Config{
		Name: "pressured", Group: workload.Group1, Sigma: 2, Mu: 2, Jobs: 96,
		Duration: 5 * time.Minute, Nodes: 32, Seed: seed,
		Programs: []string{"apsi", "mcf", "gzip", "bzip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The harness's Step-driven loop must be exactly Cluster.Run: same result
// digest and byte-identical event trace.
func TestStepLoopEqualsRun(t *testing.T) {
	tr := pressuredTrace(t, 3)
	for _, pol := range policies {
		ref := tracedCell(t, pol, tr, nil)
		want, err := ref.c.Run(ref.tr)
		if err != nil {
			t.Fatal(err)
		}
		fc := tracedCell(t, pol, tr, nil)
		got, err := fc.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: step loop digest %s, Run digest %s", pol, digest(got), digest(want))
		}
		if !bytes.Equal(jsonl(t, fc.c), jsonl(t, ref.c)) {
			t.Errorf("%s: step loop event trace differs from Run", pol)
		}
	}
}

// Wrapping the policy in the probe must perturb nothing: a saturated run,
// where reservations and migrations fire, gives the same digest and the
// same event trace bytes wrapped and unwrapped.
func TestProbeDoesNotPerturbFreshRun(t *testing.T) {
	tr := pressuredTrace(t, 5)
	for _, pol := range policies {
		plain := tracedCell(t, pol, tr, nil)
		want, err := plain.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		lg := &ledger{}
		probed := tracedCell(t, pol, tr, lg)
		got, err := probed.run(lg)
		if err != nil {
			t.Fatal(err)
		}
		if lg.err != nil {
			t.Fatal(lg.err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: probed digest %s, plain digest %s", pol, digest(got), digest(want))
		}
		if !bytes.Equal(jsonl(t, probed.c), jsonl(t, plain.c)) {
			t.Errorf("%s: probed event trace differs from plain", pol)
		}
		if lg.placeCalls == 0 || lg.controlCalls == 0 || lg.refreshes != lg.controlCalls {
			t.Errorf("%s: probe saw %d places, %d controls, %d refreshes", pol, lg.placeCalls, lg.controlCalls, lg.refreshes)
		}
		if want.Reservations+want.Migrations == 0 {
			t.Errorf("%s: no reservation or migration fired; the test covers nothing", pol)
		}
	}
}

// forkTraces runs every standard what-if from one snapshot and returns
// each continuation's digest and event trace bytes.
func forkTraces(t *testing.T, lg *ledger) (digests []string, traces [][]byte) {
	t.Helper()
	const level = 2
	tr, err := trace.Standard(workload.Group1, level, 7)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := newScheduler("vr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = paperQuantum
	cfg.Obs = obs.NewTracer(0)
	g := &forkGroup{
		tr:      tr,
		at:      time.Duration(experiments.DefaultWarmupFrac * float64(trace.Levels[level-1].Duration)),
		whatIfs: experiments.StandardWhatIfs(experiments.RunConfig{Group: workload.Group1}),
	}
	if lg != nil {
		g.probe = newProbe(sched, lg, cfg)
		sched = g.probe
	}
	if g.c, err = cluster.New(cfg, sched); err != nil {
		t.Fatal(err)
	}
	if err := g.c.Start(tr); err != nil {
		t.Fatal(err)
	}
	if err := g.c.RunToDivergence(g.at); err != nil {
		t.Fatal(err)
	}
	snap, err := g.c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range g.whatIfs {
		res, err := g.finish(snap, w, lg)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digest(res))
		traces = append(traces, jsonl(t, g.c))
	}
	return digests, traces
}

// Forked continuations stay byte-identical through the probe, including
// its forwarding of the policy's snapshot state.
func TestProbeDoesNotPerturbForks(t *testing.T) {
	wantD, wantT := forkTraces(t, nil)
	lg := &ledger{}
	gotD, gotT := forkTraces(t, lg)
	for i := range wantD {
		if gotD[i] != wantD[i] {
			t.Errorf("what-if %d: probed digest %s, plain %s", i, gotD[i], wantD[i])
		}
		if !bytes.Equal(gotT[i], wantT[i]) {
			t.Errorf("what-if %d: probed event trace differs from plain", i)
		}
	}
	if lg.restores != int64(len(wantD)) {
		t.Errorf("probe counted %d restores, want %d", lg.restores, len(wantD))
	}
}

func TestInputSeed(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 42: 42, 64: 64, 65: 1, 0: 64, -1: 63, 1000: 40} {
		if got := inputSeed(seed); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// The committed references must cover every cell of a pass, checked at
// both ends of the seed-class range and at the published seed.
func TestReferenceCoversSeedClasses(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, figureSeed, seedClasses} {
			p, err := w.setup(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, fc := range p.fresh {
				if ref[fc.key] == "" {
					t.Errorf("no reference for %s", fc.key)
				}
			}
			for _, g := range p.forks {
				for _, wi := range g.whatIfs {
					if ref[g.keyPrefix+wi.Name] == "" {
						t.Errorf("no reference for %s%s", g.keyPrefix, wi.Name)
					}
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{128: 92, 60: 83, 54: 81, 48: 79} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}
