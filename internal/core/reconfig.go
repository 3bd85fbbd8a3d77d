// Package core implements the paper's contribution: adaptive and virtual
// cluster reconfiguration for dynamic job scheduling. When the job
// blocking problem is detected — a workstation's page faults exceed its
// memory threshold but no qualified migration destination exists — and the
// accumulated idle memory in the cluster exceeds the average user memory
// of one workstation, the reconfiguration routine reserves the most
// lightly loaded workstation, blocks submissions and migrations to it
// until its running jobs complete (the reserving period), and then
// migrates the most memory-intensive page-faulting job to it. As soon as
// the blocking problem is resolved, the system adaptively switches back to
// normal load sharing, mirroring the framework pseudocode of Section 2.1:
//
//	if (exists reservation_flag(reserved_ID) == 1) &&
//	   (the workstation has enough available resources)
//	        node_ID = reserved_ID
//	else
//	        node_ID = reserve_a_workstation()
//	        reservation_flag(node_ID) = 1
//	job_ID = find_most_memory_intensive_job()
//	migrate_job(job_ID, node_ID)
package core

import (
	"fmt"
	"sort"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/job"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/predict"
)

// Rule selects when a reserving period ends.
type Rule int

// Reserving-period end rules (Section 2.1).
const (
	// RuleFullDrain ends the reserving period when every job running on
	// the reserved workstation has completed — the paper's primary
	// definition.
	RuleFullDrain Rule = iota + 1
	// RuleEarlyFit ends the reserving period "as soon as the available
	// memory space in the reserved workstation is sufficiently large
	// for a job migration with large memory demand" — the paper's
	// stated alternative.
	RuleEarlyFit
)

// String names the rule for reports.
func (r Rule) String() string {
	switch r {
	case RuleFullDrain:
		return "full-drain"
	case RuleEarlyFit:
		return "early-fit"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Options tune the reconfiguration manager.
type Options struct {
	// Rule picks the reserving-period end condition.
	Rule Rule
	// MaxReserved caps simultaneous reservations, preserving fairness
	// to normal jobs when large jobs are unusually common (the Section
	// 2.2 concern: "if there are too many large jobs, the proposed
	// method will reserve too many workstations so that normal jobs can
	// not run").
	MaxReserved int
	// ReserveTimeout abandons a reserving period that fails to complete
	// within the interval, implying the cluster is truly heavily loaded
	// (Section 2.3: "if a workstation can not be reserved within a
	// pre-determined time interval").
	ReserveTimeout time.Duration

	// Lease, when positive, turns reservations into leases: it replaces
	// ReserveTimeout as the drain bound, and an expired lease does not
	// merely give the workstation back — the manager immediately
	// re-selects the next most lightly loaded candidate so the blocked
	// job is not abandoned. Leases also self-heal around crashes: a
	// reserving or reserved workstation that fails is detected at the
	// next control period and its lease is broken the same way.
	Lease time.Duration

	// LargeJobFraction defines which jobs qualify for reserved special
	// service: demand must be at least this fraction of the mean user
	// memory. The reconfiguration targets "jobs demanding large memory
	// allocations", not every job a pressured node happens to hold.
	LargeJobFraction float64

	// MinAgeFactor requires a victim's runtime so far to be at least
	// this multiple of its migration cost before a special migration is
	// worthwhile. It encodes the paper's lifetime prediction: a job
	// that has stayed long is predicted to stay longer [5], so paying a
	// long transfer for it pays off.
	MinAgeFactor float64

	// MaxAssignedPerReservation caps the jobs served by one reserved
	// workstation before it must complete its special service.
	MaxAssignedPerReservation int

	// NetworkRAM applies the network RAM technique ([12], pointed to in
	// Section 2.3) on reserved workstations: while a workstation
	// provides special service, its page faults are satisfied from
	// remote idle memory over the interconnect instead of the local
	// swap disk, so even a job bigger than the workstation's memory
	// makes progress.
	NetworkRAM bool
}

// Default option values.
const (
	DefaultMaxReserved               = 8
	DefaultReserveTimeout            = 5 * time.Minute
	DefaultLargeJobFraction          = 0.5
	DefaultMinAgeFactor              = 0.5
	DefaultMaxAssignedPerReservation = 2
)

type reservingState struct {
	since    time.Duration
	neededMB float64 // demand of the largest blocked job observed
}

type reservedState struct {
	since    time.Duration
	assigned []*job.Job      // jobs migrated in as special service
	arrivals []time.Duration // when each assigned job was dispatched
}

// ReservationRecord describes one completed reservation, in assignment
// order: when each special-service job was dispatched to the reserved
// workstation and when it completed. It feeds the Section 5 analytical
// model's reserved-queue bound sum_j (Q_r(k) - j) * w_kj.
type ReservationRecord struct {
	Node        int
	Start, End  time.Duration
	Arrivals    []time.Duration
	Completions []time.Duration
}

// Stats counts the outcomes of reconfiguration attempts, explaining why
// reservations did or did not start.
type Stats struct {
	BlockedEvents     int // OnBlocked invocations
	IneligibleVictims int // victim too small or too young
	RoutedToReserved  int // victim sent to an existing reserved node
	IdleBelowMean     int // accumulated idle memory condition failed
	CapReached        int // reservation cap prevented a new reserving period
	NoCandidate       int // no unreserved workstation to reserve
	Started           int // reserving periods started
	Matured           int // reserving periods that completed their drain
	ReleasedEarly     int // released because blocking disappeared
	TimedOut          int // reserving periods abandoned at the timeout

	VanishedVictims int // victim gone (finished or killed) before dispatch
	LeaseExpired    int // leases released at their timeout
	LeaseReselected int // expired or broken leases re-established elsewhere
	CrashBroken     int // reservations broken by workstation crashes
	DrainBroken     int // reservations broken by workstations leaving the cluster
}

// Manager is the reconfiguration routine's state: which workstations are
// in a reserving period and which are providing reserved special service.
type Manager struct {
	opts      Options
	reserving map[int]*reservingState
	reserved  map[int]*reservedState
	stats     Stats
	records   []ReservationRecord

	// episodeOpen/episodeSince track the cluster-wide blocking episode for
	// the observability layer only; they are maintained exclusively while
	// a tracer is installed and never feed scheduling decisions.
	episodeOpen  bool
	episodeSince time.Duration

	// Per-call-site scratch for sortedIDs; distinct fields so iteration
	// over one survives a nested sort of another.
	idsReserving []int
	idsReserved  []int
	idsFit       []int
}

// NewManager builds a reconfiguration manager.
func NewManager(opts Options) (*Manager, error) {
	if opts.Rule == 0 {
		opts.Rule = RuleFullDrain
	}
	if opts.Rule != RuleFullDrain && opts.Rule != RuleEarlyFit {
		return nil, fmt.Errorf("core: unknown rule %d", opts.Rule)
	}
	if opts.MaxReserved == 0 {
		opts.MaxReserved = DefaultMaxReserved
	}
	if opts.MaxReserved < 0 {
		return nil, fmt.Errorf("core: max reserved %d must be positive", opts.MaxReserved)
	}
	if opts.ReserveTimeout == 0 {
		opts.ReserveTimeout = DefaultReserveTimeout
	}
	if opts.ReserveTimeout < 0 {
		return nil, fmt.Errorf("core: negative reserve timeout %v", opts.ReserveTimeout)
	}
	if opts.Lease < 0 {
		return nil, fmt.Errorf("core: negative lease %v", opts.Lease)
	}
	if opts.Lease > 0 {
		opts.ReserveTimeout = opts.Lease
	}
	if opts.LargeJobFraction == 0 {
		opts.LargeJobFraction = DefaultLargeJobFraction
	}
	if opts.LargeJobFraction < 0 || opts.LargeJobFraction > 1 {
		return nil, fmt.Errorf("core: large-job fraction %v outside [0, 1]", opts.LargeJobFraction)
	}
	if opts.MinAgeFactor == 0 {
		opts.MinAgeFactor = DefaultMinAgeFactor
	}
	if opts.MinAgeFactor < 0 {
		return nil, fmt.Errorf("core: negative min age factor %v", opts.MinAgeFactor)
	}
	if opts.MaxAssignedPerReservation == 0 {
		opts.MaxAssignedPerReservation = DefaultMaxAssignedPerReservation
	}
	if opts.MaxAssignedPerReservation < 0 {
		return nil, fmt.Errorf("core: max assigned %d must be positive", opts.MaxAssignedPerReservation)
	}
	return &Manager{
		opts:      opts,
		reserving: make(map[int]*reservingState),
		reserved:  make(map[int]*reservedState),
	}, nil
}

// Options reports the manager's effective options.
func (m *Manager) Options() Options { return m.opts }

// ReservingCount reports workstations currently draining.
func (m *Manager) ReservingCount() int { return len(m.reserving) }

// ReservedCount reports workstations currently in special service.
func (m *Manager) ReservedCount() int { return len(m.reserved) }

// OnBlocked is the reconfiguration entry point, invoked when the blocking
// problem is detected at a workstation. It first tries an existing
// reserved workstation with enough available resources; otherwise it
// starts a reserving period on a new workstation if the accumulated idle
// memory condition holds.
func (m *Manager) OnBlocked(c *cluster.Cluster, now time.Duration, src *node.Node, victim *job.Job) {
	if victim == nil || victim.State() != job.StateRunning {
		// The victim finished (or was killed by a crash) between
		// blocking detection and dispatch; there is nothing to migrate.
		m.stats.VanishedVictims++
		return
	}
	m.stats.BlockedEvents++
	if !m.eligible(c, now, victim) {
		m.stats.IneligibleVictims++
		return
	}
	// Step 1 of the framework: an existing reserved workstation that can
	// provide sufficient memory space and job slots.
	if id, ok := m.reservedFit(c, victim); ok {
		if rs := m.reserved[id]; rs != nil {
			if err := c.Migrate(victim, id, true); err == nil {
				rs.assigned = append(rs.assigned, victim)
				rs.arrivals = append(rs.arrivals, now)
				m.stats.RoutedToReserved++
			}
		}
		return
	}
	// Reserving periods already underway will serve the largest blocked
	// demand seen so far; remember it for the early-fit rule. A further
	// reserving period may still start below ("the reconfiguration
	// routine will start another reserving period"), bounded by the
	// reservation cap.
	for _, st := range m.reserving {
		if d := victim.MemoryDemandMB(); d > st.neededMB {
			st.neededMB = d
		}
	}
	if len(m.reserving)+len(m.reserved) >= m.opts.MaxReserved {
		m.stats.CapReached++
		return
	}
	// Activation condition: the accumulated idle memory space in the
	// cluster exceeds the average user memory space of one workstation.
	// Below that, "the cluster memory resources have been sufficiently
	// utilized" (Section 2.3) and reconfiguration cannot help.
	board := c.Board()
	if board.AccumulatedIdleMB(false) <= board.MeanUserMB() {
		m.stats.IdleBelowMean++
		return
	}
	id, ok := board.ReservationCandidate(nil)
	if !ok {
		m.stats.NoCandidate++
		return
	}
	n, err := c.Node(id)
	if err != nil || n.Reserved() || n.Draining() || n.Removed() {
		return
	}
	n.SetReserved(true)
	m.reserving[id] = &reservingState{since: now, neededMB: victim.MemoryDemandMB()}
	m.stats.Started++
	c.Emit(obs.Event{At: now, Kind: obs.KindReserveAcquire,
		Node: int32(id), Job: int32(victim.ID), Aux: -1, Val: victim.MemoryDemandMB()})
}

// Stats returns the manager's attempt counters.
func (m *Manager) Stats() Stats { return m.stats }

// refusals counts the blocked jobs refused a reservation so far: they stay
// on their pressured workstations and page locally.
func (m *Manager) refusals() int {
	return m.stats.CapReached + m.stats.IdleBelowMean + m.stats.NoCandidate
}

// sortedIDs returns a map's workstation IDs in ascending order. The
// manager's per-node state lives in maps, but decision loops with side
// effects (releases, promotions, record appends, fit tie-breaks) must
// visit workstations in a fixed order: Go's randomized map iteration
// would otherwise make runs with identical seeds non-reproducible.
// Each call site passes its own scratch slice (reused across calls, so
// steady-state control loops do not allocate) and keeps the result.
func sortedIDs[V any](dst []int, m map[int]V) []int {
	dst = dst[:0]
	for id := range m {
		dst = append(dst, id)
	}
	sort.Ints(dst)
	return dst
}

// OnControl advances reserving periods: releases them when the blocking
// problem has disappeared or the timeout expired, and promotes drained
// workstations to reserved service, migrating the most memory-intensive
// page-faulting job in.
func (m *Manager) OnControl(c *cluster.Cluster, now time.Duration) {
	if tr := c.Tracer(); tr.Enabled() {
		m.trackEpisode(c, m.blockingExists(c), now)
		if s := tr.Metrics(); s != nil {
			s.SetReconfigStats(obs.ReconfigStats{
				BlockedEvents:   int64(m.stats.BlockedEvents),
				Started:         int64(m.stats.Started),
				Matured:         int64(m.stats.Matured),
				ReleasedEarly:   int64(m.stats.ReleasedEarly),
				TimedOut:        int64(m.stats.TimedOut),
				LeaseExpired:    int64(m.stats.LeaseExpired),
				LeaseReselected: int64(m.stats.LeaseReselected),
				CapReached:      int64(m.stats.CapReached),
				NoCandidate:     int64(m.stats.NoCandidate),
			})
		}
	}
	if len(m.reserving) == 0 && len(m.reserved) == 0 {
		return
	}
	blocked := m.blockingExists(c)
	m.idsReserving = sortedIDs(m.idsReserving, m.reserving)
	for _, id := range m.idsReserving {
		st := m.reserving[id]
		n, err := c.Node(id)
		if err != nil {
			delete(m.reserving, id)
			continue
		}
		if n.Down() {
			// The workstation crashed mid-drain (the crash itself
			// cleared its reserved flag); break the lease and move
			// the drain to the next candidate.
			m.stats.CrashBroken++
			c.Emit(obs.Event{At: now, Kind: obs.KindLeaseExpire, Flags: obs.FlagCrash,
				Node: int32(id), Job: -1, Aux: -1})
			c.Emit(obs.Event{At: now, Kind: obs.KindReserveRelease, Flags: obs.FlagCrash,
				Node: int32(id), Job: -1, Aux: -1, Val: (now - st.since).Seconds()})
			delete(m.reserving, id)
			m.reselect(c, now, id, st.neededMB)
			continue
		}
		if n.Draining() || n.Removed() {
			// The workstation is leaving the cluster mid-drain. Unlike a
			// crash the reserved flag is still set, so give it back
			// properly, then restart the drain on the next candidate.
			m.stats.DrainBroken++
			c.Emit(obs.Event{At: now, Kind: obs.KindLeaseExpire, Flags: obs.FlagDrain,
				Node: int32(id), Job: -1, Aux: -1})
			m.release(c, n, st.since, now)
			delete(m.reserving, id)
			m.reselect(c, now, id, st.neededMB)
			continue
		}
		if !blocked {
			// The blocking problem disappeared during the
			// reserving period; adaptively switch back.
			m.stats.ReleasedEarly++
			m.release(c, n, st.since, now)
			delete(m.reserving, id)
			continue
		}
		if now-st.since > m.opts.ReserveTimeout {
			// The cluster is truly heavily loaded; give the
			// workstation back. Under a lease the blocked demand is
			// not abandoned: the drain restarts on the next most
			// lightly loaded candidate.
			m.stats.TimedOut++
			m.release(c, n, st.since, now)
			delete(m.reserving, id)
			if m.opts.Lease > 0 {
				m.stats.LeaseExpired++
				c.Emit(obs.Event{At: now, Kind: obs.KindLeaseExpire,
					Node: int32(id), Job: -1, Aux: -1})
				m.reselect(c, now, id, st.neededMB)
			}
			continue
		}
		if !m.drained(n, st) {
			continue
		}
		m.stats.Matured++
		// Reserving period complete: the blocking problem still
		// exists, so serve the most memory-intensive faulting jobs,
		// packing the reserved workstation as long as victims fit.
		victims := m.packVictims(c, now, n)
		if len(victims) == 0 {
			m.release(c, n, st.since, now)
			delete(m.reserving, id)
			continue
		}
		delete(m.reserving, id)
		c.Emit(obs.Event{At: now, Kind: obs.KindReservePromote,
			Node: int32(id), Job: -1, Aux: int32(len(victims))})
		arrivals := make([]time.Duration, len(victims))
		for i := range arrivals {
			arrivals[i] = now
		}
		m.reserved[id] = &reservedState{since: st.since, assigned: victims, arrivals: arrivals}
		if m.opts.NetworkRAM {
			n.Memory().SetRemoteBacking(c.Network().PageService(n.Memory().Config().PageKB))
		}
	}
	// Release reserved workstations whose special service completed; the
	// scheduler then views them as regular workstations again. A crashed
	// reserved workstation is released immediately — its assigned jobs
	// were killed or requeued by the crash, so the special service can
	// never finish on its own.
	m.idsReserved = sortedIDs(m.idsReserved, m.reserved)
	for _, id := range m.idsReserved {
		rs := m.reserved[id]
		n, err := c.Node(id)
		if err != nil {
			delete(m.reserved, id)
			continue
		}
		if n.Down() {
			m.stats.CrashBroken++
			c.Emit(obs.Event{At: now, Kind: obs.KindLeaseExpire, Flags: obs.FlagCrash,
				Node: int32(id), Job: -1, Aux: -1})
			m.finishReserved(c, n, rs, now)
			delete(m.reserved, id)
			continue
		}
		if n.Draining() || n.Removed() {
			// Special service cannot finish on a departing workstation;
			// its assigned jobs will be migrated out by the drain. Close
			// the record and give the reservation back.
			m.stats.DrainBroken++
			c.Emit(obs.Event{At: now, Kind: obs.KindLeaseExpire, Flags: obs.FlagDrain,
				Node: int32(id), Job: -1, Aux: -1})
			m.finishReserved(c, n, rs, now)
			delete(m.reserved, id)
			continue
		}
		if !allDone(rs.assigned) {
			continue
		}
		m.finishReserved(c, n, rs, now)
		delete(m.reserved, id)
	}
}

// reselect re-establishes a broken or expired lease on the next most
// lightly loaded candidate, carrying over the blocked demand the original
// drain was serving.
func (m *Manager) reselect(c *cluster.Cluster, now time.Duration, exclude int, neededMB float64) {
	if len(m.reserving)+len(m.reserved) >= m.opts.MaxReserved {
		return
	}
	id, ok := c.Board().ReservationCandidateExcluding(exclude)
	if !ok {
		return
	}
	n, err := c.Node(id)
	if err != nil || n.Reserved() || n.Down() || n.Draining() || n.Removed() {
		return
	}
	n.SetReserved(true)
	m.reserving[id] = &reservingState{since: now, neededMB: neededMB}
	m.stats.LeaseReselected++
	c.Emit(obs.Event{At: now, Kind: obs.KindLeaseReselect,
		Node: int32(id), Job: -1, Aux: int32(exclude), Val: neededMB})
	c.Emit(obs.Event{At: now, Kind: obs.KindReserveAcquire,
		Node: int32(id), Job: -1, Aux: int32(exclude), Val: neededMB})
}

// OnJobDone lets reservations release promptly on the completion that
// finishes their special service.
func (m *Manager) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	rs, ok := m.reserved[n.ID()]
	if !ok || !allDone(rs.assigned) {
		return
	}
	done := rs.since
	if d, err := j.DoneAt(); err == nil {
		done = d
	}
	m.finishReserved(c, n, rs, done)
	delete(m.reserved, n.ID())
}

// finishReserved records a completed special service and releases the node.
func (m *Manager) finishReserved(c *cluster.Cluster, n *node.Node, rs *reservedState, now time.Duration) {
	rec := ReservationRecord{
		Node:        n.ID(),
		Start:       rs.since,
		End:         now,
		Arrivals:    append([]time.Duration(nil), rs.arrivals...),
		Completions: make([]time.Duration, 0, len(rs.assigned)),
	}
	for _, j := range rs.assigned {
		if d, err := j.DoneAt(); err == nil {
			rec.Completions = append(rec.Completions, d)
		}
	}
	m.records = append(m.records, rec)
	m.release(c, n, rs.since, now)
}

// Records returns the completed reservation histories, in release order.
func (m *Manager) Records() []ReservationRecord {
	out := make([]ReservationRecord, len(m.records))
	copy(out, m.records)
	return out
}

func (m *Manager) release(c *cluster.Cluster, n *node.Node, since, now time.Duration) {
	n.SetReserved(false)
	n.Memory().SetRemoteBacking(0)
	c.Emit(obs.Event{At: now, Kind: obs.KindReserveRelease,
		Node: int32(n.ID()), Job: -1, Aux: -1, Val: (now - since).Seconds()})
}

// trackEpisode maintains the cluster-wide blocking-episode span for the
// trace: an episode opens at the first control period where the blocking
// problem exists and closes at the first where it no longer does. It runs
// only while a tracer is installed, recomputing the same side-effect-free
// predicate the reservation logic uses, so tracing never perturbs the
// schedule.
func (m *Manager) trackEpisode(c *cluster.Cluster, blocked bool, now time.Duration) {
	if blocked == m.episodeOpen {
		return
	}
	if blocked {
		m.episodeOpen, m.episodeSince = true, now
		c.Emit(obs.Event{At: now, Kind: obs.KindEpisodeOpen, Node: -1, Job: -1, Aux: -1})
		return
	}
	m.episodeOpen = false
	c.Emit(obs.Event{At: now, Kind: obs.KindEpisodeClose,
		Node: -1, Job: -1, Aux: -1, Val: (now - m.episodeSince).Seconds()})
}

// drained reports whether the reserving period is over under the manager's
// rule.
func (m *Manager) drained(n *node.Node, st *reservingState) bool {
	switch m.opts.Rule {
	case RuleEarlyFit:
		need := st.neededMB
		user := n.Memory().UserMB()
		if need > user {
			// Oversized jobs get dedicated service: the paper
			// provides "a reserved workstation for dedicated
			// service, where its page faults will not affect
			// performance of other jobs."
			return n.NumJobs() == 0
		}
		return n.IdleMB() >= need
	default: // RuleFullDrain
		return n.NumJobs() == 0
	}
}

// eligible reports whether a job qualifies for reserved special service:
// it must be a large job (relative to the mean workstation user memory)
// whose predicted remaining lifetime justifies the transfer cost. The
// lifetime test applies the heavy-tailed process-lifetime model of the
// paper's reference [5]: the job was "observed to demand a large memory
// space, causing page faults for a period of time", so it "will be likely
// to continue to stay and execute for a longer time". Under the default
// alpha = 1 model, requiring the median remaining lifetime to cover
// MinAgeFactor times the migration cost is exactly the age gate
// age >= MinAgeFactor * cost.
func (m *Manager) eligible(c *cluster.Cluster, now time.Duration, victim *job.Job) bool {
	if victim.MemoryDemandMB() < m.opts.LargeJobFraction*c.Board().MeanUserMB() {
		return false
	}
	cost := c.Network().MigrationCost(victim.MemoryDemandMB())
	return predict.Default.WorthPaying(victim.Age(now), cost, m.opts.MinAgeFactor)
}

// reservedFit finds an existing reserved workstation able to provide
// sufficient memory space and a job slot for the victim.
func (m *Manager) reservedFit(c *cluster.Cluster, victim *job.Job) (int, bool) {
	demand := victim.MemoryDemandMB()
	bestID, found := -1, false
	var bestIdle float64
	m.idsFit = sortedIDs(m.idsFit, m.reserved)
	for _, id := range m.idsFit {
		rs := m.reserved[id]
		if len(rs.assigned) >= m.opts.MaxAssignedPerReservation {
			continue
		}
		n, err := c.Node(id)
		if err != nil || !n.HasSlot() {
			continue
		}
		idle := n.IdleMB()
		fits := idle >= demand ||
			// Dedicated service for a job bigger than any
			// workstation: acceptable only on an empty node.
			(demand > n.Memory().UserMB() && n.NumJobs() == 0)
		if !fits {
			continue
		}
		if !found || idle > bestIdle {
			bestID, bestIdle, found = id, idle, true
		}
	}
	return bestID, found
}

// packVictims migrates as many eligible victims into the matured reserved
// workstation n as fit its idle memory and job slots, up to the
// per-reservation cap, and returns them.
func (m *Manager) packVictims(c *cluster.Cluster, now time.Duration, n *node.Node) []*job.Job {
	var assigned []*job.Job
	for len(assigned) < m.opts.MaxAssignedPerReservation && n.HasSlot() {
		victim := m.clusterVictim(c, now)
		if victim == nil {
			break
		}
		demand := victim.MemoryDemandMB()
		fits := n.IdleMB() >= demand ||
			(demand > n.Memory().UserMB() && n.NumJobs() == 0 && len(assigned) == 0)
		if !fits {
			break
		}
		if err := c.Migrate(victim, n.ID(), true); err != nil {
			break
		}
		assigned = append(assigned, victim)
	}
	return assigned
}

// clusterVictim picks the eligible job with the largest memory demand
// among jobs on pressured, unreserved workstations. It walks the
// cluster's exact pressured set instead of every node; the re-checks
// keep the selection identical to the old dense scan (the mask holds
// precisely the pressured nodes, reserved or not). Migrations happen
// between calls, never during one, so the mask is stable for the walk.
func (m *Manager) clusterVictim(c *cluster.Cluster, now time.Duration) *job.Job {
	var best *job.Job
	bestDemand := 0.0
	c.ForEachPressured(func(n *node.Node) bool {
		if n.Reserved() || !n.Pressured() {
			return true
		}
		j := n.MostMemoryIntensiveJob()
		if j == nil || !m.eligible(c, now, j) {
			return true
		}
		if d := j.MemoryDemandMB(); d > bestDemand {
			best, bestDemand = j, d
		}
		return true
	})
	return best
}

// blockingExists reports whether the blocking problem persists: some
// pressured workstation cannot place its most memory-intensive job
// anywhere, or submissions are waiting with nowhere to go.
func (m *Manager) blockingExists(c *cluster.Cluster) bool {
	if c.PendingCount() > 0 {
		return true
	}
	board := c.Board()
	blocked := false
	c.ForEachPressured(func(n *node.Node) bool {
		if n.Reserved() || !n.Pressured() {
			return true
		}
		victim := n.MostMemoryIntensiveJob()
		if victim == nil {
			return true
		}
		if _, ok := board.BestDestinationExcluding(victim.MemoryDemandMB(), n.ID()); !ok {
			blocked = true
			return false
		}
		return true
	})
	return blocked
}

// allDone reports whether every assigned job is terminal. A job killed by
// a workstation crash counts: its special service can never resume, and
// treating it as open would pin the reservation forever.
func allDone(jobs []*job.Job) bool {
	for _, j := range jobs {
		if j.State() != job.StateDone && j.State() != job.StateKilled {
			return false
		}
	}
	return true
}
