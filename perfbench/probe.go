package main

import (
	"sort"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/metrics"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/sim"
)

// ledger accumulates the traced passes' per-layer measurements. Every
// figure is taken from outside the program: around calls into public
// package functions, or by reading public state.
type ledger struct {
	generate time.Duration // trace synthesis in set-up

	start, finish time.Duration // Cluster.Start and Cluster.Finish
	step          time.Duration // the Step loop, including probe work
	events        int64

	placeCalls, placeOK int64
	place, control      time.Duration
	controlCalls        int64
	done                time.Duration
	doneCalls           int64

	probe time.Duration // shadow board and node sampling, inside step

	activeNodeQuanta          int64
	activeSamples, pressSampl int64

	refreshes, refreshedNodes, changedNodes int64
	refresh                                 time.Duration
	selects                                 int64
	selectDur                               time.Duration

	warmup, snapshot, restore, tail time.Duration
	snapshots, restores             int64
	forkFresh, forkSkipped          time.Duration // simulated time

	migrations, reservations, episodes int64

	series []*obs.Series // live-telemetry series attached in set-up
	err    error         // first probe failure

	wall    time.Duration // the traced passes' host time
	clockNs float64       // calibrated cost of one clock read
	spanNs  float64       // calibrated reading of an empty timed interval
}

// noteResult adds a cell's simulated decision counts.
func (lg *ledger) noteResult(r *metrics.Result) {
	if lg == nil {
		return
	}
	lg.migrations += int64(r.Migrations)
	lg.reservations += int64(r.Reservations)
	lg.episodes += int64(r.BlockingEpisodes)
}

// The probe reads the clock twice per policy callback. Part of that cost
// lands inside the timed interval (an empty interval reads spanNs) and
// the rest outside it, in the step loop. With Place called millions of
// times a pass, that is no rounding error, so callback times are reported
// net of spanNs per call and the step loop net of both reads.

// clockCost is the host time the probe's clock reads add to a pass.
func (lg *ledger) clockCost() time.Duration {
	return time.Duration(float64(2*(lg.placeCalls+lg.controlCalls+lg.doneCalls)) * lg.clockNs)
}

// net removes the empty-interval reading from each of calls intervals.
func (lg *ledger) net(d time.Duration, calls int64) time.Duration {
	return d - time.Duration(float64(calls)*lg.spanNs)
}

func (lg *ledger) placeTime() time.Duration   { return lg.net(lg.place, lg.placeCalls) }
func (lg *ledger) controlTime() time.Duration { return lg.net(lg.control, lg.controlCalls) }
func (lg *ledger) doneTime() time.Duration    { return lg.net(lg.done, lg.doneCalls) }

// policyTime is the time spent inside the scheduler's callbacks.
func (lg *ledger) policyTime() time.Duration {
	return lg.placeTime() + lg.controlTime() + lg.doneTime()
}

// stepTime is the Step loop's time as an untraced run would spend it.
func (lg *ledger) stepTime() time.Duration { return lg.step - lg.probe - lg.clockCost() }

// selfTime is the Step loop's time outside the policy: the cluster's own
// work, mostly node quantum folds, plus the engine.
func (lg *ledger) selfTime() time.Duration { return lg.stepTime() - lg.policyTime() }

// stateful is the cluster's optional fork interface for schedulers.
type stateful interface {
	SnapshotState() any
	RestoreState(any)
}

// selectDemandMB is the demand the shadow board's destination select
// asks for: a mid-sized group-1 working set.
const selectDemandMB = 150

// probeSched is a forwarding Scheduler decorator that times every policy
// callback. At each control instant it also samples the nodes and
// refreshes a shadow load board; the live board is never touched.
type probeSched struct {
	inner   cluster.Scheduler
	lg      *ledger
	quantum time.Duration
	period  time.Duration
	last    time.Duration // virtual time of the previous node sample

	shadow *loadinfo.Board
	prev   []node.LoadStatus
}

// newProbe wraps a policy; cfg is the cluster's configuration, whose
// defaults are filled on a copy to learn the quantum and control period.
func newProbe(inner cluster.Scheduler, lg *ledger, cfg cluster.Config) *probeSched {
	if err := cfg.Validate(); err != nil && lg.err == nil {
		lg.err = err
	}
	return &probeSched{inner: inner, lg: lg, quantum: cfg.Quantum, period: cfg.ControlPeriod}
}

func (p *probeSched) Name() string { return p.inner.Name() }

func (p *probeSched) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	t := time.Now()
	target, remote, ok := p.inner.Place(c, j, home)
	p.lg.place += time.Since(t)
	p.lg.placeCalls++
	if ok {
		p.lg.placeOK++
	}
	return target, remote, ok
}

func (p *probeSched) OnControl(c *cluster.Cluster, now time.Duration) {
	p.sample(c, now)
	t := time.Now()
	p.inner.OnControl(c, now)
	p.lg.control += time.Since(t)
	p.lg.controlCalls++
}

func (p *probeSched) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	t := time.Now()
	p.inner.OnJobDone(c, n, j)
	p.lg.done += time.Since(t)
	p.lg.doneCalls++
}

// SnapshotState forwards to the wrapped policy so forks rewind it; a
// stateless policy snapshots to nil, which the cluster skips on restore.
func (p *probeSched) SnapshotState() any {
	if s, ok := p.inner.(stateful); ok {
		return s.SnapshotState()
	}
	return nil
}

func (p *probeSched) RestoreState(v any) { p.inner.(stateful).RestoreState(v) }

// sample runs at a control instant, right after the live board refresh:
// it counts active and pressured nodes, counts nodes whose load status
// changed since the last instant, and refreshes and queries the shadow
// board. Its whole cost is charged to the probe, not to the step loop.
func (p *probeSched) sample(c *cluster.Cluster, now time.Duration) {
	t0 := time.Now()
	lg := p.lg
	nodes := c.Nodes()
	if p.shadow == nil || len(p.prev) != len(nodes) {
		b, err := loadinfo.NewBoard(len(nodes), p.period)
		if err != nil {
			if lg.err == nil {
				lg.err = err
			}
			return
		}
		p.shadow, p.prev = b, make([]node.LoadStatus, len(nodes))
	}
	quanta := int64((now - p.last) / p.quantum)
	p.last = now
	var active, pressured, changed int64
	for i, n := range nodes {
		if n.NumJobs() > 0 {
			active++
			if n.Pressured() {
				pressured++
			}
		}
		if st := n.LoadStatus(); st != p.prev[i] {
			changed++
			p.prev[i] = st
		}
	}
	lg.activeNodeQuanta += active * quanta
	lg.activeSamples += active
	lg.pressSampl += pressured
	lg.changedNodes += changed
	lg.refreshedNodes += int64(len(nodes))

	t1 := time.Now()
	if err := p.shadow.Refresh(now, nodes); err != nil && lg.err == nil {
		lg.err = err
	}
	t2 := time.Now()
	p.shadow.BestDestination(selectDemandMB, nil)
	p.shadow.ReservationCandidate(nil)
	t3 := time.Now()
	lg.refresh += t2.Sub(t1)
	lg.refreshes++
	lg.selectDur += t3.Sub(t2)
	lg.selects += 2
	lg.probe += time.Since(t0)
}

// medianNs runs fn reps times and returns the median of its results.
func medianNs(reps int, fn func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = fn()
	}
	sort.Float64s(v)
	return v[reps/2]
}

// clockReadNs calibrates the cost of one host clock read, the unit of the
// traced run's overhead: every timed call costs two.
func clockReadNs() float64 {
	const n = 200_000
	return medianNs(5, func() float64 {
		t0 := time.Now()
		var sink time.Time
		for i := 0; i < n; i++ {
			sink = time.Now()
		}
		_ = sink
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

// emptySpanNs calibrates what a timed interval around nothing reads.
func emptySpanNs() float64 {
	const n = 200_000
	return medianNs(5, func() float64 {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		return float64(sum.Nanoseconds()) / n
	})
}

// engineEventNs times a no-op Schedule plus Step on a standalone engine:
// the event core's cost per event with no simulation work attached.
func engineEventNs() float64 {
	const n = 200_000
	noop := func() {}
	return medianNs(5, func() float64 {
		e := sim.NewEngine(1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.After(time.Millisecond, noop)
			e.Step()
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

// emitNs replays one captured event list into a fresh sink of each kind
// and returns the cost per event: a metrics Series, a FlightRecorder and
// an unbounded buffer.
func emitNs(events []obs.Event) (series, flight, buffer float64) {
	if len(events) == 0 {
		return 0, 0, 0
	}
	replay := func(mk func() *obs.Tracer) float64 {
		return medianNs(5, func() float64 {
			t := mk()
			t0 := time.Now()
			for _, ev := range events {
				t.Emit(ev)
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(len(events))
		})
	}
	series = replay(func() *obs.Tracer {
		t := obs.NewStreamTracer()
		t.SetMetrics(obs.NewRegistry().Series("replay", "replay", 0))
		return t
	})
	flight = replay(func() *obs.Tracer {
		t := obs.NewStreamTracer()
		t.SetFlightRecorder(obs.NewFlightRecorder(obs.FlightConfig{}))
		return t
	})
	buffer = replay(func() *obs.Tracer { return obs.NewTracer(0) })
	return series, flight, buffer
}

// seriesEvents totals every event kind a series counted.
func seriesEvents(s *obs.Series) uint64 {
	var n uint64
	for k := obs.Kind(1); ; k++ {
		if _, err := obs.ParseKind(k.String()); err != nil {
			return n
		}
		n += s.KindCount(k)
	}
}
