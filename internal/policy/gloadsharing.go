// Package policy implements the inter-workstation scheduling policies the
// paper evaluates and compares against:
//
//   - GLoadSharing — the dynamic CPU+memory load sharing scheme of
//     [Chen, Xiao, Zhang, ICDCS 2001], the paper's baseline. Jobs are
//     admitted where idle memory and a job slot exist, submitted remotely
//     when the home workstation is loaded, and migrated away from
//     workstations whose page faults exceed the memory threshold.
//   - NoSharing — purely local round-robin scheduling (no inter-node
//     scheduling at all).
//   - CPUSharing — load sharing on job counts alone, ignoring memory.
//   - Suspension — G-Loadsharing plus the "brute force" response to the
//     blocking problem discussed in Section 1: suspend the largest job
//     instead of reconfiguring.
//
// The virtual reconfiguration policy itself lives in internal/core; it
// composes GLoadSharing through the OnBlocked/OnDone hooks exposed here.
package policy

import (
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/node"
)

// GLoadSharing is the dynamic load sharing baseline.
type GLoadSharing struct {
	// AdmitFloorFrac is the minimum idle memory — as a fraction of the
	// mean workstation user memory — a node must report to be considered
	// to "have idle memory space" for a submission whose eventual demand
	// is unknown. A meaningful floor keeps admission from stuffing nodes
	// with jobs that have not yet grown their allocations.
	AdmitFloorFrac float64

	// MigrationsPerControl caps pressure-driven migrations started from
	// one workstation per control period.
	MigrationsPerControl int

	// PressureOvercommit is the memory threshold as an overcommit
	// fraction: migration is triggered only when demand exceeds user
	// memory by this factor ("oversized to a certain degree").
	PressureOvercommit float64

	// NodeCooldown spaces pressure-driven migrations out of the same
	// workstation, so one detection episode triggers one migration
	// rather than one per control period.
	NodeCooldown time.Duration

	// MaxJobMigrations caps how many times one job may be migrated by
	// pressure, preventing ping-pong over the slow interconnect.
	MaxJobMigrations int

	// OnBlocked fires when a pressured workstation cannot find a
	// qualified destination for its most memory-intensive job — the
	// event that defines the job blocking problem. The virtual
	// reconfiguration manager attaches here.
	OnBlocked func(c *cluster.Cluster, now time.Duration, src *node.Node, victim *job.Job)

	// OnDone fires on every job completion (reservation release hooks).
	OnDone func(c *cluster.Cluster, n *node.Node, j *job.Job)

	name          string
	lastMigration map[int]time.Duration // per-node cooldown bookkeeping
	memo          placeMemo
}

var _ cluster.Scheduler = (*GLoadSharing)(nil)

// Default tuning for the baseline policy.
const (
	// DefaultAdmitFloorFrac treats a workstation as having idle memory
	// space when at least a sixth of the mean user memory is free. With
	// job memory demands unknown at submission time, any small-looking
	// placement can later grow into the "unsuitable job submission" that
	// causes the blocking problem.
	DefaultAdmitFloorFrac = 1.0 / 6
	// DefaultPressureOvercommit tolerates 5% overcommit before treating
	// page faults as a migration trigger.
	DefaultPressureOvercommit = 1.05
	// DefaultNodeCooldown spaces migrations out of one workstation.
	DefaultNodeCooldown = 10 * time.Second
	// DefaultMaxJobMigrations bounds per-job migration count.
	DefaultMaxJobMigrations = 3
)

// NewGLoadSharing builds the baseline policy with default parameters.
func NewGLoadSharing() *GLoadSharing {
	return &GLoadSharing{
		AdmitFloorFrac:       DefaultAdmitFloorFrac,
		MigrationsPerControl: 1,
		PressureOvercommit:   DefaultPressureOvercommit,
		NodeCooldown:         DefaultNodeCooldown,
		MaxJobMigrations:     DefaultMaxJobMigrations,
		name:                 "G-Loadsharing",
		lastMigration:        make(map[int]time.Duration),
	}
}

// Name implements cluster.Scheduler.
func (g *GLoadSharing) Name() string {
	if g.name == "" {
		return "G-Loadsharing"
	}
	return g.name
}

// SetName overrides the reported policy name (used by composing policies).
func (g *GLoadSharing) SetName(name string) { g.name = name }

// Place implements the paper's submission rule: a new job can be submitted
// to a workstation that has idle memory space and fewer running jobs than
// the CPU threshold. The home workstation is preferred; otherwise the job
// is remotely submitted to the best qualified node; otherwise the
// submission blocks.
//
// Blocked submissions are retried every control period, and almost every
// retry fails, so Place memoizes what it can per board generation (see
// placeMemo). The home test itself runs on every call: a down or draining
// home passes it without qualifying as a destination.
func (g *GLoadSharing) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	board := c.Board()
	m := &g.memo
	if gen := board.Generation(); board != m.board || gen != m.gen || g.AdmitFloorFrac != m.frac {
		// Memory demands are unknown before jobs start running ([3]);
		// the only admission signal is whether the workstation has idle
		// memory space, read as at least the floor fraction of user
		// memory.
		need := g.AdmitFloorFrac * board.MeanUserMB()
		if board != m.board || gen != m.gen || need != m.need {
			m.noDest = false
		}
		m.board, m.gen, m.frac, m.need = board, gen, g.AdmitFloorFrac, need
	}
	if board.Admits(home, m.need) {
		return home, false, true
	}
	if m.noDest {
		return -1, false, false
	}
	if id, ok := board.BestDestinationExcluding(m.need, home); ok {
		return id, true, true
	}
	m.noDest = true
	return -1, false, false
}

// placeMemo caches Place's board-derived inputs for one (board,
// generation) pair: the admission need for one AdmitFloorFrac, and whether
// no node passes the destination filter for that need. The verdict is
// sound because the destination filter (BestDestination: unreserved, up,
// not draining or retired, unpressured, free slot, idle ≥ need) is a
// subset of the home test (Admits). A failed Place proves the home fails
// the home test, hence the destination filter, and the search excluding
// the home found nothing — so no node passes the filter. The cluster
// publishes every node under its own index, so the excluded node ID is
// exactly the home slot. Any board mutation advances the generation and
// drops the verdict.
type placeMemo struct {
	board  *loadinfo.Board
	gen    uint64
	frac   float64
	need   float64
	noDest bool
}

// OnControl migrates jobs away from pressured workstations: whenever page
// faults due to memory shortage are detected, the most memory-intensive
// job is moved to a lightly loaded workstation with sufficient idle memory
// and a free job slot, if one exists. When none exists, the blocking
// problem has been detected and the OnBlocked hook fires.
func (g *GLoadSharing) OnControl(c *cluster.Cluster, now time.Duration) {
	board := c.Board()
	overcommit := g.PressureOvercommit
	if overcommit < 1 {
		overcommit = 1
	}
	for _, n := range c.Nodes() {
		if n.Reserved() || n.Memory().Overcommit() < overcommit {
			continue
		}
		if last, ok := g.lastMigration[n.ID()]; ok && now-last < g.NodeCooldown {
			continue
		}
		budget := g.MigrationsPerControl
		if budget <= 0 {
			budget = 1
		}
		for moved := 0; moved < budget && n.Memory().Overcommit() >= overcommit; moved++ {
			victim := g.migratable(n)
			if victim == nil {
				break
			}
			id, ok := board.BestDestinationExcluding(victim.MemoryDemandMB(), n.ID())
			if !ok {
				c.Collector().BlockingEpisodes++
				if g.OnBlocked != nil {
					g.OnBlocked(c, now, n, victim)
				}
				break
			}
			if err := c.Migrate(victim, id, false); err != nil {
				break
			}
			g.lastMigration[n.ID()] = now
		}
	}
}

// migratable picks the most memory-intensive job that has not exhausted
// its migration budget.
func (g *GLoadSharing) migratable(n *node.Node) *job.Job {
	var best *job.Job
	bestDemand := -1.0
	for i, count := 0, n.NumJobs(); i < count; i++ {
		j := n.JobAt(i)
		if g.MaxJobMigrations > 0 && j.Migrations() >= g.MaxJobMigrations {
			continue
		}
		if d := j.MemoryDemandMB(); d > bestDemand {
			best, bestDemand = j, d
		}
	}
	return best
}

// OnJobDone implements cluster.Scheduler.
func (g *GLoadSharing) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	if g.OnDone != nil {
		g.OnDone(c, n, j)
	}
}

// glsState is the policy's mutable state for cluster forking.
type glsState struct {
	lastMigration map[int]time.Duration
}

// SnapshotState captures the policy's mutable state (the per-node
// migration cooldown clocks) for cluster forking.
func (g *GLoadSharing) SnapshotState() any {
	lm := make(map[int]time.Duration, len(g.lastMigration))
	for id, t := range g.lastMigration {
		lm[id] = t
	}
	return &glsState{lastMigration: lm}
}

// RestoreState rewinds the policy to a state from SnapshotState.
func (g *GLoadSharing) RestoreState(state any) {
	s := state.(*glsState)
	clear(g.lastMigration)
	for id, t := range s.lastMigration {
		g.lastMigration[id] = t
	}
}
