package cluster

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"vrcluster/internal/faults"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/metrics"
	"vrcluster/internal/netlink"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/sim"
)

// schedulerState is the optional policy interface for cluster forking:
// policies carrying mutable run state (cooldown clocks, suspension pools,
// reservation tables) implement it so a restored cluster rewinds the
// policy alongside everything else. Stateless policies need nothing.
type schedulerState interface {
	SnapshotState() any
	RestoreState(any)
}

// savedWire pairs a live wireTransfer pointer with its saved value.
// Engine callbacks captured the pointer during the shared prefix, so
// Restore writes the value back through it rather than allocating a
// replacement the revived closures would never see.
type savedWire struct {
	ptr   *wireTransfer
	value wireTransfer
}

// Snapshot is a complete deep copy of a running cluster's mutable state,
// taken between events (in practice: at the divergence instant after
// RunToDivergence). Restoring it rewinds the cluster in place so a forked
// continuation is byte-identical — metrics and event trace — to a fresh
// run that reached the same instant.
type Snapshot struct {
	engine *sim.EngineSnapshot

	nodes    []node.Snapshot
	jobs     []*job.Job
	jobState []job.Snapshot

	board     *loadinfo.Snapshot
	link      *netlink.Snapshot // nil when SharedNetwork is off
	injector  *faults.Snapshot  // nil when no fault plan is active
	collector *metrics.Collector
	tracer    *obs.TracerSnapshot // nil when tracing is off

	sched      Scheduler
	schedState any // nil when the policy is stateless

	pending  []pendingSubmission
	stranded []strandedMigration
	wire     []savedWire

	homes     map[int]int
	drainAt   map[int]time.Duration
	removedAt map[int]time.Duration

	active    []uint64
	pressured []uint64

	controlTicker sim.TickerSnapshot
	sampleTicker  sim.TickerSnapshot
	controlPeriod time.Duration

	quantumHandle  sim.Handle
	outstanding    int
	arrived        int
	remoteInFlight int
	activeCount    int
	scaledAt       time.Duration
	timedOut       bool
	holdOpen       bool

	auditChecks     int
	auditViolations int
}

// Snapshot captures the cluster's complete mutable state. It is valid only
// on an armed run (after Start, before Finish) that has not failed, and is
// not supported while the kernel-style recorder is active — the recorder's
// per-interval log has no rewind path, and fork drivers never record.
func (c *Cluster) Snapshot() (*Snapshot, error) {
	if c.runErr != nil {
		return nil, fmt.Errorf("cluster: snapshot of a failed run: %w", c.runErr)
	}
	if c.cleanup == nil {
		return nil, errors.New("cluster: snapshot requires an armed run (call Start first)")
	}
	if c.recorder != nil || c.cfg.RecordInterval > 0 {
		return nil, errors.New("cluster: snapshot is not supported with RecordInterval tracing")
	}
	s := &Snapshot{
		engine:    c.engine.Snapshot(),
		nodes:     make([]node.Snapshot, len(c.nodes)),
		jobs:      append([]*job.Job(nil), c.ranJobs...),
		jobState:  make([]job.Snapshot, len(c.ranJobs)),
		board:     c.board.Snapshot(),
		collector: c.col.Clone(),
		sched:     c.sched,
		pending:   append([]pendingSubmission(nil), c.pending...),
		stranded:  append([]strandedMigration(nil), c.stranded...),
		wire:      make([]savedWire, 0, len(c.wire)),
		homes:     maps.Clone(c.homes),
		drainAt:   maps.Clone(c.drainAt),
		removedAt: maps.Clone(c.removedAt),
		active:    append([]uint64(nil), c.active...),
		pressured: append([]uint64(nil), c.pressured...),

		controlTicker: c.controlTicker.Snapshot(),
		sampleTicker:  c.sampleTicker.Snapshot(),
		controlPeriod: c.cfg.ControlPeriod,

		quantumHandle:  c.quantumHandle,
		outstanding:    c.outstanding,
		arrived:        c.arrived,
		remoteInFlight: c.remoteInFlight,
		activeCount:    c.activeCount,
		scaledAt:       c.scaledAt,
		timedOut:       c.timedOut,
		holdOpen:       c.holdOpen,
	}
	for i, n := range c.nodes {
		s.nodes[i] = n.Snapshot()
	}
	for i, j := range c.ranJobs {
		s.jobState[i] = j.Snapshot()
	}
	if c.link != nil {
		s.link = c.link.Snapshot()
	}
	if c.injector != nil {
		s.injector = c.injector.Snapshot()
	}
	if c.obs != nil {
		s.tracer = c.obs.Snapshot()
	}
	if ss, ok := c.sched.(schedulerState); ok {
		s.schedState = ss.SnapshotState()
	}
	for _, t := range c.wire {
		s.wire = append(s.wire, savedWire{ptr: t, value: *t})
	}
	if c.auditor != nil {
		s.auditChecks = c.auditor.Checks()
		s.auditViolations = len(c.auditor.Violations())
	}
	return s, nil
}

// Restore rewinds the cluster to a prior Snapshot. Everything that
// happened after the snapshot vanishes: events fall out of the engine
// queue, nodes joined by the autoscaler or membership script are dropped,
// fork-injected tail arrivals are forgotten, and the jobs of the shared
// prefix are rewound in place so every closure captured before the
// snapshot sees the restored state.
func (c *Cluster) Restore(s *Snapshot) error {
	if s == nil {
		return errors.New("cluster: nil snapshot")
	}
	c.engine.Restore(s.engine)

	// Membership may have appended nodes after the snapshot: drop them and
	// rewind the survivors. Watchers on dropped nodes die with the slice.
	if len(s.nodes) > len(c.nodes) {
		return fmt.Errorf("cluster: snapshot has %d nodes, cluster only %d", len(s.nodes), len(c.nodes))
	}
	c.nodes = c.nodes[:len(s.nodes)]
	for i := range s.nodes {
		c.nodes[i].Restore(s.nodes[i])
	}
	c.ranJobs = append(c.ranJobs[:0], s.jobs...)
	for i, j := range s.jobs {
		j.Restore(s.jobState[i])
	}

	c.board.Restore(s.board)
	c.col.Restore(s.collector)
	if c.link != nil {
		c.link.Restore(s.link)
	}
	if c.injector != nil {
		c.injector.Restore(s.injector)
	}
	if c.obs != nil {
		c.obs.Restore(s.tracer)
	}
	c.sched = s.sched
	if s.schedState != nil {
		c.sched.(schedulerState).RestoreState(s.schedState)
	}

	c.pending = append(c.pending[:0], s.pending...)
	c.stranded = append(c.stranded[:0], s.stranded...)
	clear(c.wire)
	for _, w := range s.wire {
		*w.ptr = w.value
		c.wire[w.value.j.ID] = w.ptr
	}
	clear(c.homes)
	maps.Copy(c.homes, s.homes)
	clear(c.drainAt)
	maps.Copy(c.drainAt, s.drainAt)
	clear(c.removedAt)
	maps.Copy(c.removedAt, s.removedAt)

	c.active = append(c.active[:0], s.active...)
	c.pressured = append(c.pressured[:0], s.pressured...)
	c.activeCount = s.activeCount

	c.controlTicker.Restore(s.controlTicker)
	c.sampleTicker.Restore(s.sampleTicker)
	c.cfg.ControlPeriod = s.controlPeriod

	c.quantumHandle = s.quantumHandle
	c.outstanding = s.outstanding
	c.arrived = s.arrived
	c.remoteInFlight = s.remoteInFlight
	c.scaledAt = s.scaledAt
	c.timedOut = s.timedOut
	c.holdOpen = s.holdOpen
	c.runErr = nil

	if c.auditor != nil {
		// Audits of an abandoned continuation must not leak into this fork:
		// roll the counters back to the snapshot point. Violations still
		// fail the run that caused them before any restore happens.
		c.auditor.Rewind(s.auditChecks, s.auditViolations)
	}
	return nil
}
