package policy

import (
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
)

// NoSharing schedules every job on its home workstation, waiting for a job
// slot when the CPU threshold is reached and ignoring memory entirely —
// the conventional multiprogrammed workstation with no inter-workstation
// scheduling.
type NoSharing struct{}

var _ cluster.Scheduler = (*NoSharing)(nil)

// Name implements cluster.Scheduler.
func (NoSharing) Name() string { return "No-Loadsharing" }

// Place implements cluster.Scheduler.
func (NoSharing) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	e, err := c.Board().Entry(home)
	if err != nil || !e.HasSlot {
		return -1, false, false
	}
	return home, false, true
}

// OnControl implements cluster.Scheduler.
func (NoSharing) OnControl(*cluster.Cluster, time.Duration) {}

// OnJobDone implements cluster.Scheduler.
func (NoSharing) OnJobDone(*cluster.Cluster, *node.Node, *job.Job) {}

// CPUSharing balances the number of jobs across workstations and ignores
// memory, in the tradition of job-count-based load sharing (e.g. Utopia
// and the lifetime-based schemes the paper's Section 1 cites).
type CPUSharing struct{}

var _ cluster.Scheduler = (*CPUSharing)(nil)

// Name implements cluster.Scheduler.
func (CPUSharing) Name() string { return "CPU-Loadsharing" }

// Place implements cluster.Scheduler. It streams over the board in place
// rather than materializing an Entries copy per placement — the selection
// (fewest jobs, first wins) is unchanged.
func (CPUSharing) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	bestID, bestJobs, found := -1, 0, false
	c.Board().ForEach(func(e loadinfo.Entry) bool {
		if e.Reserved || !e.HasSlot {
			return true
		}
		if !found || e.Jobs < bestJobs {
			bestID, bestJobs, found = e.NodeID, e.Jobs, true
		}
		return true
	})
	if !found {
		return -1, false, false
	}
	return bestID, bestID != home, true
}

// OnControl implements cluster.Scheduler.
func (CPUSharing) OnControl(*cluster.Cluster, time.Duration) {}

// OnJobDone implements cluster.Scheduler.
func (CPUSharing) OnJobDone(*cluster.Cluster, *node.Node, *job.Job) {}

// Suspension is G-Loadsharing plus the simple blocking response the paper
// rejects as unfair (Section 1): when the blocking problem is detected,
// the most memory-intensive job is suspended — releasing its memory and
// job slot — and resumed only when a workstation can hold its whole
// demand again. Suspended time counts as queuing delay.
type Suspension struct {
	gls       *GLoadSharing
	suspended []*suspendedJob
}

type suspendedJob struct {
	j     *job.Job
	since time.Duration
}

var _ cluster.Scheduler = (*Suspension)(nil)

// NewSuspension builds the suspension baseline.
func NewSuspension() *Suspension {
	s := &Suspension{gls: NewGLoadSharing()}
	s.gls.SetName("Suspension")
	s.gls.OnBlocked = s.onBlocked
	return s
}

// Name implements cluster.Scheduler.
func (s *Suspension) Name() string { return s.gls.Name() }

// Place implements cluster.Scheduler.
func (s *Suspension) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	return s.gls.Place(c, j, home)
}

// OnControl first runs the load-sharing control loop (which may suspend
// via the blocking hook), then tries to resume suspended jobs in FIFO
// order wherever their full demand now fits.
func (s *Suspension) OnControl(c *cluster.Cluster, now time.Duration) {
	s.gls.OnControl(c, now)
	if len(s.suspended) == 0 {
		return
	}
	board := c.Board()
	remaining := s.suspended[:0]
	for _, sj := range s.suspended {
		if now > sj.since {
			_ = sj.j.AddFrozenQueue(now - sj.since)
			sj.since = now
		}
		id, ok := board.BestDestination(sj.j.MemoryDemandMB(), nil)
		if !ok {
			remaining = append(remaining, sj)
			continue
		}
		n, err := c.Node(id)
		if err != nil {
			remaining = append(remaining, sj)
			continue
		}
		// Resuming from local swap costs no network transfer; the
		// suspension wait itself carried the penalty.
		if err := n.AttachMigrated(sj.j, 0, false, now); err != nil {
			remaining = append(remaining, sj)
			continue
		}
		_ = board.NotePlacement(id, sj.j.MemoryDemandMB())
	}
	s.suspended = remaining
}

// OnJobDone implements cluster.Scheduler.
func (s *Suspension) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	s.gls.OnJobDone(c, n, j)
}

// SuspendedCount reports jobs currently frozen by suspension.
func (s *Suspension) SuspendedCount() int { return len(s.suspended) }

// suspensionState is the policy's mutable state for cluster forking. The
// suspended jobs themselves are rewound in place by the cluster; the
// snapshot records which jobs were frozen and since when.
type suspensionState struct {
	gls       any
	suspended []suspendedJob
}

// SnapshotState captures the policy's mutable state for cluster forking.
func (s *Suspension) SnapshotState() any {
	st := &suspensionState{
		gls:       s.gls.SnapshotState(),
		suspended: make([]suspendedJob, len(s.suspended)),
	}
	for i, sj := range s.suspended {
		st.suspended[i] = *sj
	}
	return st
}

// RestoreState rewinds the policy to a state from SnapshotState.
func (s *Suspension) RestoreState(state any) {
	st := state.(*suspensionState)
	s.gls.RestoreState(st.gls)
	s.suspended = s.suspended[:0]
	for i := range st.suspended {
		sj := st.suspended[i]
		s.suspended = append(s.suspended, &sj)
	}
}

func (s *Suspension) onBlocked(c *cluster.Cluster, now time.Duration, src *node.Node, victim *job.Job) {
	if victim.State() != job.StateRunning {
		return
	}
	if err := src.Detach(victim, now); err != nil {
		return
	}
	c.Emit(obs.Event{At: now, Kind: obs.KindJobSuspend, Node: int32(src.ID()), Job: int32(victim.ID), Aux: -1})
	s.suspended = append(s.suspended, &suspendedJob{j: victim, since: now})
}
