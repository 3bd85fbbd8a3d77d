package main

import (
	"fmt"
	"io"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/experiments"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// seedClasses is the number of distinct inputs a workload has: the
// command-line seed selects one of them, so every input has a committed
// reference digest.
const seedClasses = 64

// inputSeed maps any command-line seed onto 1..seedClasses; 1 to 64 map to
// themselves, so seed 42 is the paper's published seed.
func inputSeed(seed int64) int64 {
	return ((seed-1)%seedClasses+seedClasses)%seedClasses + 1
}

// Each workload is a closed loop: one cell after another, in sequence.
// Why each exists is recorded beside it and in BENCHMARK.json.
type workloadDef struct {
	name string
	// minPasses is the fewest timed passes a run makes, whatever its
	// time budget.
	minPasses int
	setup     func(seed int64, lg *ledger) (*pass, error)
}

var workloads = []workloadDef{
	// What users run: the paper's Figure 1-4 grid. The only workload where
	// the policy layer works hard (Place retries of blocked submissions).
	{name: "paper-grid", minPasses: 2, setup: setupPaperGrid},
	// Unpressured fine-quantum runs: the ramp fold dominates and Place
	// and the pressured fold are nearly idle — the bypass case for
	// policy and pressured-fold changes.
	{name: "ramp-fine", minPasses: 4, setup: setupRampFine},
	// Saturated fine-quantum runs: the pressured stall-replay fold
	// dominates and reservations and migrations fire.
	{name: "pressured-fine", minPasses: 4, setup: setupPressuredFine},
	// Snapshot/restore what-if fan-out with live telemetry attached: the
	// only workload that restores state and whose sinks do work.
	{name: "whatif-fork", minPasses: 2, setup: setupWhatIfFork},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// gridSeeds is how many consecutive seeds the paper-grid and whatif-fork
// passes draw their grids from. One generated grid can cost a quarter
// more or less host time than another; several per pass keep that
// spread between runs with different seeds below the host's own noise.
const gridSeeds = 3

// Cell counts per pass of the seed-per-cell workloads.
const (
	rampCells      = 128
	pressuredCells = 48
)

// fineQuantum is the 10 ms quantum of the ClusterRun benchmark family;
// paperQuantum is the 100 ms quantum the published grid uses.
const (
	fineQuantum  = 10 * time.Millisecond
	paperQuantum = 100 * time.Millisecond
)

// newScheduler builds a policy by short name.
func newScheduler(name string) (cluster.Scheduler, error) {
	switch name {
	case "gls":
		return policy.NewGLoadSharing(), nil
	case "vr":
		return core.NewVReconfiguration(core.Options{Rule: core.RuleFullDrain})
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// newCell constructs a cluster and its policy for one fresh cell,
// wrapping the policy in the probe when the pass is traced.
func newCell(key, pol string, cfg cluster.Config, tr *trace.Trace, lg *ledger) (*freshCell, error) {
	sched, err := newScheduler(pol)
	if err != nil {
		return nil, err
	}
	if lg != nil {
		sched = newProbe(sched, lg, cfg)
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		return nil, err
	}
	return &freshCell{key: key, tr: tr, c: c}, nil
}

// generate synthesizes a trace, charging the time to the ledger.
func generate(lg *ledger, fn func() (*trace.Trace, error)) (*trace.Trace, error) {
	t0 := time.Now()
	tr, err := fn()
	if lg != nil {
		lg.generate += time.Since(t0)
	}
	return tr, err
}

var policies = [2]string{"gls", "vr"}

func setupPaperGrid(seed int64, lg *ledger) (*pass, error) {
	p := &pass{lg: lg}
	for s := seed; s < seed+gridSeeds; s++ {
		if err := addPaperGrid(p, s, lg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// addPaperGrid adds the Figure 1-4 grid of one seed to a pass.
func addPaperGrid(p *pass, seed int64, lg *ledger) error {
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		cfg := cluster.Cluster1()
		if g == workload.Group2 {
			cfg = cluster.Cluster2()
		}
		cfg.Quantum = paperQuantum
		for lvl := 1; lvl <= len(trace.Levels); lvl++ {
			tr, err := generate(lg, func() (*trace.Trace, error) { return trace.Standard(g, lvl, seed) })
			if err != nil {
				return err
			}
			for _, pol := range policies {
				key := fmt.Sprintf("paper-grid/s%d/%s/%s", seed, tr.Name, pol)
				fc, err := newCell(key, pol, cfg, tr.Clone(), lg)
				if err != nil {
					return err
				}
				p.fresh = append(p.fresh, fc)
			}
		}
	}
	return nil
}

// setupSeeded builds n cells; cell i runs the trace generated from seed
// seed+i under the policies alternately. Keys name the trace seed, so
// overlapping seeds share references.
func setupSeeded(name string, n int, seed int64, lg *ledger, tc trace.Config) (*pass, error) {
	p := &pass{lg: lg}
	cfg := cluster.Cluster1()
	cfg.Quantum = fineQuantum
	for i := 0; i < n; i++ {
		c := tc
		c.Seed = seed + int64(i)
		c.Name = fmt.Sprintf("%s-%d", name, c.Seed)
		tr, err := generate(lg, func() (*trace.Trace, error) { return trace.Generate(c) })
		if err != nil {
			return nil, err
		}
		pol := policies[i%2]
		fc, err := newCell(fmt.Sprintf("%s/t%d/%s", name, c.Seed, pol), pol, cfg, tr, lg)
		if err != nil {
			return nil, err
		}
		p.fresh = append(p.fresh, fc)
	}
	return p, nil
}

// setupRampFine is the 60-job, 32-node group-1 mix of the ClusterRun
// benchmark: it never saturates memory, so nodes spend their time in the
// ramp regime.
func setupRampFine(seed int64, lg *ledger) (*pass, error) {
	return setupSeeded("ramp-fine", rampCells, seed, lg, trace.Config{
		Group: workload.Group1, Sigma: 2, Mu: 2, Jobs: 60,
		Duration: 10 * time.Minute, Nodes: 32, Jitter: workload.DefaultJitter,
	})
}

// setupPressuredFine is the saturated mix of the ClusterRunPressured
// benchmark: the four largest group-1 working sets at about three resident
// jobs per workstation.
func setupPressuredFine(seed int64, lg *ledger) (*pass, error) {
	return setupSeeded("pressured-fine", pressuredCells, seed, lg, trace.Config{
		Group: workload.Group1, Sigma: 2, Mu: 2, Jobs: 96,
		Duration: 5 * time.Minute, Nodes: 32,
		Programs: []string{"apsi", "mcf", "gzip", "bzip"},
	})
}

// whatIfLevels are the heavy group-1 traces the what-if grid forks.
var whatIfLevels = []int{3, 4, 5}

// setupWhatIfFork arms a V-Reconfiguration cluster per level with the
// full live-telemetry fan-out: a stream tracer feeding a metrics series
// and a flight recorder whose dumps are encoded and discarded.
func setupWhatIfFork(seed int64, lg *ledger) (*pass, error) {
	p := &pass{lg: lg}
	reg := obs.NewRegistry()
	for s := seed; s < seed+gridSeeds; s++ {
		if err := addWhatIfs(p, s, reg, lg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// addWhatIfs adds the what-if fan-out of one seed to a pass.
func addWhatIfs(p *pass, seed int64, reg *obs.Registry, lg *ledger) error {
	rc := experiments.RunConfig{Group: workload.Group1, Seed: seed, Quantum: paperQuantum, Rule: core.RuleFullDrain}
	for _, lvl := range whatIfLevels {
		tr, err := generate(lg, func() (*trace.Trace, error) { return trace.Standard(workload.Group1, lvl, seed) })
		if err != nil {
			return err
		}
		sched, err := newScheduler("vr")
		if err != nil {
			return err
		}
		cfg := cluster.Cluster1()
		cfg.Quantum = paperQuantum
		series := reg.Series(sched.Name(), tr.Name, lvl)
		cfg.Obs = obs.NewStreamTracer()
		cfg.Obs.SetMetrics(series)
		cfg.Obs.SetFlightRecorder(obs.NewFlightRecorder(obs.FlightConfig{
			EpisodeSLO:   10 * time.Minute,
			MigrationSLO: 30 * time.Second,
			Sink:         func(_ string, evs []obs.Event) error { return obs.WriteJSONL(io.Discard, evs) },
		}))
		g := &forkGroup{
			keyPrefix: fmt.Sprintf("whatif-fork/s%d/%s/", seed, tr.Name),
			tr:        tr,
			at:        time.Duration(experiments.DefaultWarmupFrac * float64(trace.Levels[lvl-1].Duration)),
			whatIfs:   experiments.StandardWhatIfs(rc),
		}
		if lg != nil {
			g.probe = newProbe(sched, lg, cfg)
			sched = g.probe
			lg.series = append(lg.series, series)
		}
		if g.c, err = cluster.New(cfg, sched); err != nil {
			return err
		}
		p.forks = append(p.forks, g)
	}
	return nil
}
