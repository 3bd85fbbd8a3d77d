// Package vrcluster_test benchmarks the reproduction end to end: one
// benchmark per table and figure of the paper's evaluation, each running
// the published workload through both policies and reporting the measured
// reduction as a custom metric, plus micro-benchmarks of the simulator's
// hot paths. The full five-trace sweep with printed rows lives in
// cmd/vrbench; these benches regenerate each artifact at benchmark
// granularity.
package vrcluster_test

import (
	"math/rand"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/experiments"
	"vrcluster/internal/memory"
	"vrcluster/internal/metrics"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
	"vrcluster/internal/runner"
	"vrcluster/internal/sim"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// benchQuantum trades a little timing resolution for benchmark speed; the
// effect on hour-scale runs is below 0.1%.
const benchQuantum = 100 * time.Millisecond

func runPair(b *testing.B, g workload.Group, level int) (base, vr *metrics.Result) {
	b.Helper()
	gr, err := experiments.Run(experiments.RunConfig{
		Group:   g,
		Quantum: benchQuantum,
		Levels:  []int{level},
	})
	if err != nil {
		b.Fatal(err)
	}
	lr := gr.Levels[0]
	return lr.Base, lr.VR
}

func reportReduction(b *testing.B, base, vr *metrics.Result) {
	b.Helper()
	b.ReportMetric(100*metrics.Reduction(base.TotalExec.Seconds(), vr.TotalExec.Seconds()), "%exec-reduction")
	b.ReportMetric(100*metrics.Reduction(base.TotalQueue.Seconds(), vr.TotalQueue.Seconds()), "%queue-reduction")
	b.ReportMetric(100*metrics.Reduction(base.MeanSlowdown, vr.MeanSlowdown), "%slowdown-reduction")
}

// BenchmarkTable1Workloads regenerates Table 1: synthesizing group-1 jobs
// from the SPEC-2000 catalog.
func BenchmarkTable1Workloads(b *testing.B) {
	programs := workload.Programs(workload.Group1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := programs[i%len(programs)]
		if _, err := p.NewJob(i, 0, rng, workload.DefaultJitter); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Workloads regenerates Table 2: synthesizing group-2 jobs.
func BenchmarkTable2Workloads(b *testing.B) {
	programs := workload.Programs(workload.Group2)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := programs[i%len(programs)]
		if _, err := p.NewJob(i, 0, rng, workload.DefaultJitter); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (execution and queuing times of
// workload group 1): one full paired simulation of SPEC-Trace-3 per
// iteration, reporting the reductions.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, vr := runPair(b, workload.Group1, 3)
		reportReduction(b, base, vr)
	}
}

// BenchmarkFigure2 regenerates Figure 2 (average slowdowns and idle memory
// volumes of workload group 1) on the lightest trace.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, vr := runPair(b, workload.Group1, 1)
		reportReduction(b, base, vr)
		b.ReportMetric(base.AvgIdleMB, "MB-idle-base")
		b.ReportMetric(vr.AvgIdleMB, "MB-idle-vr")
	}
}

// BenchmarkFigure3 regenerates Figure 3 (execution and queuing times of
// workload group 2) on App-Trace-3.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, vr := runPair(b, workload.Group2, 3)
		reportReduction(b, base, vr)
	}
}

// BenchmarkFigure4 regenerates Figure 4 (average slowdowns and job balance
// skew of workload group 2) on App-Trace-2.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, vr := runPair(b, workload.Group2, 2)
		reportReduction(b, base, vr)
		b.ReportMetric(base.AvgSkew, "skew-base")
		b.ReportMetric(vr.AvgSkew, "skew-vr")
	}
}

// BenchmarkAnalyticModel regenerates the Section 5 verification: the
// reserved-queue bound and gain decomposition on App-Trace-1.
func BenchmarkAnalyticModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, vr := runPair(b, workload.Group2, 1)
		b.ReportMetric((base.TotalExec - vr.TotalExec).Seconds(), "s-measured-gain")
	}
}

// BenchmarkAblationRules regenerates the reserving-period rule ablation
// (full drain vs early fit, Section 2.1) on App-Trace-2.
func BenchmarkAblationRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationRules(experiments.RunConfig{
			Group:   workload.Group2,
			Quantum: benchQuantum,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Variant == "vr-full-drain" || r.Variant == "vr-early-fit" {
				b.ReportMetric(r.Result.TotalExec.Seconds(), "s-"+r.Variant)
			}
		}
	}
}

// BenchmarkAblationBigJobs regenerates the Section 2.3 caveat: virtual
// reconfiguration on a big-job-dominant workload.
func BenchmarkAblationBigJobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationBigJobs(experiments.RunConfig{
			Group:   workload.Group1,
			Quantum: benchQuantum,
		}, 1)
		if err != nil {
			b.Fatal(err)
		}
		reportReduction(b, results[0].Result, results[1].Result)
	}
}

// Grid benchmarks: the same three-level paired sweep executed
// sequentially and fanned out across the worker pool. On a multi-core
// machine the parallel variant's wall time approaches work/cores; the
// results are byte-identical either way (pinned by
// TestParallelRunMatchesSequential in internal/experiments).
func benchGrid(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		gr, err := experiments.Run(experiments.RunConfig{
			Group:    workload.Group1,
			Quantum:  benchQuantum,
			Levels:   []int{1, 2, 3},
			Parallel: parallel,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gr.Speedup(), "x-speedup")
	}
}

// BenchmarkExperimentGridSequential runs levels 1-3 of workload group 1 on
// a single worker — the exact pre-runner code path.
func BenchmarkExperimentGridSequential(b *testing.B) { benchGrid(b, 1) }

// BenchmarkExperimentGridParallel runs the same grid with one worker per
// CPU via the runner pool.
func BenchmarkExperimentGridParallel(b *testing.B) { benchGrid(b, runner.DefaultParallelism()) }

// Micro-benchmarks of the simulator substrate.

// BenchmarkEngineScheduleRun measures raw event throughput: each of the
// b.N operations is one scheduled-and-executed event. Scheduling and
// draining are interleaved in batches so b.N covers both halves and the
// arena reaches its zero-allocation steady state (heap and slot arrays
// stop growing, the free list recycles every slot).
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%batch)*time.Microsecond, fn)
		if i%batch == batch-1 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineScheduleCancel mixes scheduling with O(1) cancellation:
// each operation schedules one event and cancels the one scheduled half a
// ring ago, so roughly half the cancels hit pending events (exercising
// immediate slot release) and half miss already-fired ones. Guards the
// arena against free-list or generation-stamp regressions.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	const ring = 256
	var handles [ring]sim.Handle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % ring
		e.Cancel(handles[(slot+ring/2)%ring])
		handles[slot] = e.After(time.Duration(slot)*time.Microsecond, fn)
		if slot == ring-1 {
			e.Run() // drain live events and lazily drop cancelled entries
		}
	}
	e.Run()
}

// BenchmarkNodeTick measures the quantum-advance hot path with a
// multiprogrammed, memory-pressured workstation.
func BenchmarkNodeTick(b *testing.B) {
	n, err := node.New(node.Config{
		CPUSpeedMHz:  400,
		CPUThreshold: 8,
		Memory:       memory.Config{CapacityMB: 384},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j, err := workload.Programs(workload.Group1)[i%6].NewJob(i, 0, nil, workload.Jitter{})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Admit(j, 0); err != nil {
			b.Fatal(err)
		}
	}
	dt := 10 * time.Millisecond
	now := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += dt
		if _, err := n.Tick(dt, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerate measures standard trace synthesis.
func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Standard(workload.Group1, 3, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterTrace synthesizes the shared 60-job trace used by the
// ClusterRun benchmark family.
func benchClusterTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := trace.Generate(trace.Config{
		Name:     "bench",
		Group:    workload.Group1,
		Sigma:    2,
		Mu:       2,
		Jobs:     60,
		Duration: 10 * time.Minute,
		Nodes:    32,
		Seed:     1,
		Jitter:   workload.DefaultJitter,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchClusterRun runs the shared trace under the full V-Reconfiguration
// stack; traced installs an unbounded event tracer first.
func benchClusterRun(b *testing.B, traced bool) {
	tr := benchClusterTrace(b)
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewVReconfiguration(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := cluster.Cluster1()
		cfg.Quantum = 10 * time.Millisecond
		if traced {
			cfg.Obs = obs.NewTracer(0)
		}
		c, err := cluster.New(cfg, sched)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
		events = c.Tracer().Len()
	}
	if traced {
		b.ReportMetric(float64(events), "events")
	}
}

// BenchmarkClusterRun measures a complete small trace execution on a
// 32-node cluster under the full V-Reconfiguration stack, at the fine
// 10 ms quantum, with tracing disabled (the emit path reduces to a nil
// check). BENCH_5.json pairs it with BenchmarkClusterRunTraced to pin the
// observability layer's overhead.
func BenchmarkClusterRun(b *testing.B) { benchClusterRun(b, false) }

// BenchmarkClusterRunTraced is the same execution with an unbounded event
// tracer installed, measuring the cost of recording every scheduler
// decision plus the periodic per-node samples.
func BenchmarkClusterRunTraced(b *testing.B) { benchClusterRun(b, true) }

// BenchmarkClusterRunSteady measures the simulator's steady state: the
// cluster is armed and warmed up once, then every iteration rewinds to the
// warmup snapshot and re-simulates a one-second window of quantum, control,
// and sampling activity. Restore reuses live backing arrays and the event
// arena recycles its slots, so after the priming pass the loop must not
// allocate — scripts/bench.sh fails the snapshot if allocs/op is nonzero.
func BenchmarkClusterRunSteady(b *testing.B) {
	const warmup = 5 * time.Minute
	const window = time.Second
	tr := benchClusterTrace(b)
	sched, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	c, err := cluster.New(cfg, sched)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(tr); err != nil {
		b.Fatal(err)
	}
	if err := c.RunToDivergence(warmup); err != nil {
		b.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		b.Helper()
		if err := c.Restore(snap); err != nil {
			b.Fatal(err)
		}
		if err := c.RunToDivergence(warmup + window); err != nil {
			b.Fatal(err)
		}
	}
	run() // prime: backing arrays reach steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchSeedGrid runs the five-seed sensitivity grid on SPEC-Trace-3 with
// one worker, either forking each cell off a shared warmup prefix or
// re-simulating every cell from scratch. The rows are byte-identical
// either way; BENCH_7.json pairs the two to record the fork speedup.
func benchSeedGrid(b *testing.B, fork bool) {
	b.Helper()
	cfg := experiments.RunConfig{
		Group:    workload.Group1,
		Quantum:  benchQuantum,
		Parallel: 1,
		Fork:     fork,
	}
	seeds := []int64{7, 21, 42, 99, 1234}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SeedSensitivity(cfg, 3, seeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedGridFork shares the simulated warmup prefix across cells.
func BenchmarkSeedGridFork(b *testing.B) { benchSeedGrid(b, true) }

// BenchmarkSeedGridFresh re-simulates the full trace for every cell.
func BenchmarkSeedGridFresh(b *testing.B) { benchSeedGrid(b, false) }

// BenchmarkClusterRunBaseline is the same execution under plain
// G-Loadsharing, isolating the reconfiguration machinery's overhead (the
// paper: "the adaptive process causes little additional overhead").
func BenchmarkClusterRunBaseline(b *testing.B) {
	tr, err := trace.Generate(trace.Config{
		Name:     "bench",
		Group:    workload.Group1,
		Sigma:    2,
		Mu:       2,
		Jobs:     60,
		Duration: 10 * time.Minute,
		Nodes:    32,
		Seed:     1,
		Jitter:   workload.DefaultJitter,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.Cluster1()
		cfg.Quantum = 10 * time.Millisecond
		c, err := cluster.New(cfg, policy.NewGLoadSharing())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPressuredTrace synthesizes the pressure-saturated trace used by the
// pressured ClusterRun benchmarks: the Group1 mix restricted to its four
// largest working sets at ~3 resident jobs per workstation at the
// saturation peak, so demand sits above user memory for most of the run.
// The slow-ramp programs (apsi, mcf) keep the stall-replay fold busy while
// the quick-ramp ones (gzip, bzip) add long pressured-flat stretches, so
// the batched clock runs through all of its pressured regimes.
func benchPressuredTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := trace.Generate(trace.Config{
		Name:     "bench-pressured",
		Group:    workload.Group1,
		Sigma:    2,
		Mu:       2,
		Jobs:     96,
		Duration: 5 * time.Minute,
		Nodes:    32,
		Seed:     1,
		Programs: []string{"apsi", "mcf", "gzip", "bzip"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchClusterRunPressured runs the saturated trace under the full
// V-Reconfiguration stack; dense forces quantum-by-quantum ticking so the
// pair isolates the stall-replay fold's gain (DESIGN.md §12).
func benchClusterRunPressured(b *testing.B, dense bool) {
	tr := benchPressuredTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewVReconfiguration(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := cluster.Cluster1()
		cfg.Quantum = 10 * time.Millisecond
		cfg.DenseTicks = dense
		c, err := cluster.New(cfg, sched)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRunPressured measures a pressure-heavy trace execution
// with the batched quantum clock, including the pressured stall-replay
// fold. BENCH_8.json pairs it with the forced-dense variant below.
func BenchmarkClusterRunPressured(b *testing.B) { benchClusterRunPressured(b, false) }

// BenchmarkClusterRunPressuredDense is the same execution with batching
// disabled — the pre-fold cost of a saturated cluster.
func BenchmarkClusterRunPressuredDense(b *testing.B) { benchClusterRunPressured(b, true) }

// BenchmarkClusterRunSteadyPressured is the steady-state rewind loop of
// BenchmarkClusterRunSteady on the saturated trace, with the warmup
// snapshot taken at the residency peak so the re-simulated window runs
// through TickPressuredBatch. The same zero-alloc contract applies:
// scripts/bench.sh fails the snapshot if allocs/op is nonzero, pinning
// the plan cache and fold buffers to their steady-state capacity.
func BenchmarkClusterRunSteadyPressured(b *testing.B) {
	const warmup = 4 * time.Minute
	const window = time.Second
	tr := benchPressuredTrace(b)
	sched, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	c, err := cluster.New(cfg, sched)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(tr); err != nil {
		b.Fatal(err)
	}
	if err := c.RunToDivergence(warmup); err != nil {
		b.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		b.Helper()
		if err := c.Restore(snap); err != nil {
			b.Fatal(err)
		}
		if err := c.RunToDivergence(warmup + window); err != nil {
			b.Fatal(err)
		}
	}
	run() // prime: fold buffers and plan cache reach steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkClusterRunSteadyMetrics is the steady-state rewind loop with
// the full live-telemetry fan-out attached: a stream tracer feeding a
// metrics series and a flight recorder. It pins the telemetry hot path's
// allocation contract — folding every event into atomic counters,
// histograms, partition gauges, and the anomaly ring must not allocate
// once the series' backing arrays exist. scripts/bench.sh fails the
// snapshot if allocs/op is nonzero.
func BenchmarkClusterRunSteadyMetrics(b *testing.B) {
	const warmup = 5 * time.Minute
	const window = time.Second
	tr := benchClusterTrace(b)
	sched, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	cfg.Obs = obs.NewStreamTracer()
	cfg.Obs.SetMetrics(obs.NewRegistry().Series("vr", tr.Name, 1))
	cfg.Obs.SetFlightRecorder(obs.NewFlightRecorder(obs.FlightConfig{}))
	c, err := cluster.New(cfg, sched)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(tr); err != nil {
		b.Fatal(err)
	}
	if err := c.RunToDivergence(warmup); err != nil {
		b.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		b.Helper()
		if err := c.Restore(snap); err != nil {
			b.Fatal(err)
		}
		if err := c.RunToDivergence(warmup + window); err != nil {
			b.Fatal(err)
		}
	}
	run() // prime: series partitions and ring reach steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkClusterRunBlocked measures the job-blocking regime the paper is
// about: the rewind loop of BenchmarkClusterRunSteady on SPEC-Trace-5 at
// the paper grid's 100 ms quantum, with the warmup snapshot taken halfway
// through the trace, where 413 submissions are blocked (seed 42). Each
// control period in the 10 s window retries every one of them through
// Place, so the loop times the blocked-retry path. Transfer and placement
// closures still allocate a little, so it is deliberately not a
// BenchmarkClusterRunSteady* variant (scripts/bench.sh requires those to
// be allocation-free).
func BenchmarkClusterRunBlocked(b *testing.B) {
	const window = 10 * time.Second
	tr, err := trace.Standard(workload.Group1, 5, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	warmup := tr.Duration() / 2
	sched, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = benchQuantum
	c, err := cluster.New(cfg, sched)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(tr); err != nil {
		b.Fatal(err)
	}
	if err := c.RunToDivergence(warmup); err != nil {
		b.Fatal(err)
	}
	if c.PendingCount() < 100 {
		b.Fatalf("only %d submissions blocked at the snapshot", c.PendingCount())
	}
	snap, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		b.Helper()
		if err := c.Restore(snap); err != nil {
			b.Fatal(err)
		}
		if err := c.RunToDivergence(warmup + window); err != nil {
			b.Fatal(err)
		}
	}
	run() // prime: retry buffers and event arena reach capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
