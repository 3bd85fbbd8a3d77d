// Package node models one workstation: a CPU scheduled round-robin among
// resident jobs (the paper's intra-workstation scheduling), a job-slot
// limit (the CPU threshold), and a memory manager whose pressure converts
// CPU progress into paging delay. Nodes know nothing about load sharing;
// inter-workstation policy lives above them.
package node

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/obs"
)

// Config describes one workstation.
type Config struct {
	ID int

	// CPUSpeedMHz is this workstation's clock; RefSpeedMHz is the clock
	// of the machine on which job CPU demands were measured. Their ratio
	// scales execution speed in heterogeneous clusters; both simulated
	// homogeneous clusters use ratio 1.
	CPUSpeedMHz float64
	RefSpeedMHz float64

	// CPUThreshold is the maximum number of job slots the CPU is willing
	// to take.
	CPUThreshold int

	// ContextSwitch is charged per job per quantum when more than one
	// job shares the CPU.
	ContextSwitch time.Duration

	// DiskMBps is the local disk bandwidth serving buffer-cache misses;
	// IOCacheNeedMB is the page-cache working set an I/O-active job
	// needs for its reads and writes to hit memory. When memory pressure
	// squeezes the cache below that need, I/O-active jobs stall on the
	// disk — the buffer-cache status the paper's instrumentation
	// monitors (Section 3.1).
	DiskMBps      float64
	IOCacheNeedMB float64

	Memory memory.Config
}

// Defaults for the workstation model.
const (
	// DefaultContextSwitch is the paper's 0.1 ms context switch time.
	DefaultContextSwitch = 100 * time.Microsecond
	// DefaultDiskMBps matches late-90s commodity disks.
	DefaultDiskMBps = 10
	// DefaultIOCacheNeedMB is the buffer-cache working set per
	// I/O-active job.
	DefaultIOCacheNeedMB = 16
)

// Validate fills defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.CPUSpeedMHz <= 0 {
		return fmt.Errorf("node %d: CPU speed %v MHz must be positive", c.ID, c.CPUSpeedMHz)
	}
	if c.RefSpeedMHz == 0 {
		c.RefSpeedMHz = c.CPUSpeedMHz
	}
	if c.RefSpeedMHz <= 0 {
		return fmt.Errorf("node %d: reference speed %v MHz must be positive", c.ID, c.RefSpeedMHz)
	}
	if c.CPUThreshold <= 0 {
		return fmt.Errorf("node %d: CPU threshold %d must be positive", c.ID, c.CPUThreshold)
	}
	if c.ContextSwitch == 0 {
		c.ContextSwitch = DefaultContextSwitch
	}
	if c.ContextSwitch < 0 {
		return fmt.Errorf("node %d: negative context switch %v", c.ID, c.ContextSwitch)
	}
	if c.DiskMBps == 0 {
		c.DiskMBps = DefaultDiskMBps
	}
	if c.DiskMBps < 0 {
		return fmt.Errorf("node %d: negative disk bandwidth %v", c.ID, c.DiskMBps)
	}
	if c.IOCacheNeedMB == 0 {
		c.IOCacheNeedMB = DefaultIOCacheNeedMB
	}
	if c.IOCacheNeedMB < 0 {
		return fmt.Errorf("node %d: negative cache need %v", c.ID, c.IOCacheNeedMB)
	}
	return nil
}

// Node is one simulated workstation.
type Node struct {
	cfg  Config
	mem  *memory.Manager
	jobs []*job.Job

	reserved     bool
	down         bool         // crashed and not yet repaired
	draining     bool         // leaving gracefully: no new work, residents migrate out
	removed      bool         // retired from the cluster; permanently inert
	reservedJobs map[int]bool // jobs admitted under reservation (special service)

	// lanes[i] is jobs[i]'s accounting state, kept index-for-index
	// through admission and removal.
	lanes []lane

	// ioActive counts resident jobs with a nonzero I/O rate (rates are
	// fixed before admission), keeping the per-tick cache-availability
	// check O(1).
	ioActive int

	// watcher, when set, observes every resident-job-count change; the
	// cluster uses it to maintain its active-workstation set.
	watcher func(resident int)

	// pressure, when set, observes every memory-pressure transition; the
	// cluster uses it to maintain an exact pressured-workstation index so
	// control loops need not scan every node. lastPressured is the state
	// last reported, so only transitions reach the watcher.
	pressure      func(pressured bool)
	lastPressured bool

	// tr receives admission, landing, and completion events; nil when
	// tracing is off.
	tr *obs.Tracer

	// incoming holds capacity (a job slot and memory demand) for
	// migrations in flight toward this node, so the destination cannot
	// fill up while the memory image is being transferred.
	incoming map[int]float64

	faults       float64 // cumulative page-fault count
	cpuDelivered time.Duration
	ioStall      time.Duration // cumulative buffer-cache-miss stall

	// kern is Advance's scratch. Only its quantum, a pure function of
	// its own key, outlives a call, so Snapshot/Restore exclude it.
	kern kernel
}

// New constructs a workstation.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem, err := memory.NewManager(cfg.Memory)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	return &Node{
		cfg:          cfg,
		mem:          mem,
		reservedJobs: make(map[int]bool),
		incoming:     make(map[int]float64),
	}, nil
}

// SetResidencyWatcher registers fn to be called with the resident job count
// after every admission, landing, detach, crash, and completion. A nil fn
// clears the watcher.
func (n *Node) SetResidencyWatcher(fn func(resident int)) { n.watcher = fn }

// SetPressureWatcher registers fn to be called whenever the node's memory
// pressure flips. Pressure changes only when registered demand changes, and
// every demand mutation funnels through the node's own methods, so the
// notification sites below keep the watcher's view exact. A nil fn clears
// the watcher.
func (n *Node) SetPressureWatcher(fn func(pressured bool)) {
	n.pressure = fn
	n.lastPressured = n.mem.Pressured()
}

// notifyPressure reports a pressure transition to the watcher, if any.
func (n *Node) notifyPressure() {
	if n.pressure == nil {
		return
	}
	if p := n.mem.Pressured(); p != n.lastPressured {
		n.lastPressured = p
		n.pressure(p)
	}
}

// SetTracer installs the structured event sink. A nil tracer disables the
// node's emissions.
func (n *Node) SetTracer(tr *obs.Tracer) { n.tr = tr }

// notifyResidency reports the current resident count to the watcher.
func (n *Node) notifyResidency() {
	if n.watcher != nil {
		n.watcher(len(n.jobs))
	}
}

// appendResident adds j to the resident set with its accounting baseline at
// now and demandMB registered with the memory manager.
func (n *Node) appendResident(j *job.Job, now time.Duration, demandMB float64) {
	n.jobs = append(n.jobs, j)
	n.lanes = append(n.lanes, lane{j: j, covered: now, demand: demandMB})
	if j.IORate() > 0 {
		n.ioActive++
	}
	n.notifyResidency()
}

// removeResidentAt drops jobs[idx] from the resident set, preserving
// round-robin order.
func (n *Node) removeResidentAt(idx int) {
	j := n.jobs[idx]
	if j.IORate() > 0 {
		n.ioActive--
	}
	n.jobs = append(n.jobs[:idx], n.jobs[idx+1:]...)
	n.lanes = append(n.lanes[:idx], n.lanes[idx+1:]...)
	n.notifyResidency()
}

// ID reports the workstation's identifier.
func (n *Node) ID() int { return n.cfg.ID }

// Config returns the validated configuration.
func (n *Node) Config() Config { return n.cfg }

// SpeedFactor is CPU speed relative to the demand-reference machine.
func (n *Node) SpeedFactor() float64 { return n.cfg.CPUSpeedMHz / n.cfg.RefSpeedMHz }

// Memory exposes the node's memory manager.
func (n *Node) Memory() *memory.Manager { return n.mem }

// NumJobs reports resident job count.
func (n *Node) NumJobs() int { return len(n.jobs) }

// Jobs returns a copy of the resident job list in round-robin order.
func (n *Node) Jobs() []*job.Job {
	out := make([]*job.Job, len(n.jobs))
	copy(out, n.jobs)
	return out
}

// JobAt returns the i-th resident job in round-robin order. Together with
// NumJobs it lets per-control scans iterate residents without the
// defensive copy Jobs makes.
func (n *Node) JobAt(i int) *job.Job { return n.jobs[i] }

// HasSlot reports whether a job slot is free (CPU threshold not reached),
// counting slots held for in-flight migrations. A crashed workstation has
// no slots until repaired; draining and removed workstations never do —
// they are shedding work, not accepting it.
func (n *Node) HasSlot() bool {
	return !n.down && !n.draining && !n.removed &&
		len(n.jobs)+len(n.incoming) < n.cfg.CPUThreshold
}

// ExpectMigration holds a job slot and demandMB of memory for a migration
// in flight toward this node, so capacity cannot be given away before the
// memory image lands.
func (n *Node) ExpectMigration(jobID int, demandMB float64) error {
	if n.down {
		return fmt.Errorf("node %d: down, cannot hold for job %d", n.cfg.ID, jobID)
	}
	if !n.HasSlot() {
		return fmt.Errorf("node %d: no job slot to hold for job %d", n.cfg.ID, jobID)
	}
	if _, ok := n.incoming[jobID]; ok {
		return fmt.Errorf("node %d: job %d already expected", n.cfg.ID, jobID)
	}
	if err := n.mem.Register(jobID, demandMB); err != nil {
		return err
	}
	n.incoming[jobID] = demandMB
	n.notifyPressure()
	return nil
}

// CancelExpected releases a hold placed by ExpectMigration (the migration
// was retargeted or abandoned).
func (n *Node) CancelExpected(jobID int) error {
	if _, ok := n.incoming[jobID]; !ok {
		return fmt.Errorf("node %d: job %d not expected", n.cfg.ID, jobID)
	}
	delete(n.incoming, jobID)
	err := n.mem.Remove(jobID)
	n.notifyPressure()
	return err
}

// ExpectedCount reports migrations currently in flight toward this node.
func (n *Node) ExpectedCount() int { return len(n.incoming) }

// ExpectedJobs returns the IDs of jobs with in-flight holds on this node in
// ascending order (the invariant auditor cross-checks them against the
// memory manager's registrations).
func (n *Node) ExpectedJobs() []int {
	ids := make([]int, 0, len(n.incoming))
	for id := range n.incoming {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// IdleMB reports idle user memory.
func (n *Node) IdleMB() float64 { return n.mem.IdleMB() }

// Pressured reports whether memory demand exceeds user memory.
func (n *Node) Pressured() bool { return n.mem.Pressured() }

// Reserved reports whether the node is under a virtual reconfiguration
// reservation (no normal submissions or migrations allowed in).
func (n *Node) Reserved() bool { return n.reserved }

// SetReserved flips the reservation flag. Dropping a reservation also
// cancels any expected-migration holds placed while it was in force:
// special-service transfers still in flight toward a released lease must
// not strand phantom memory demand on a workstation the scheduler again
// sees as regular. Their landings fall back to the holdless path and are
// re-routed by the stranded-migration retry loop if the node has since
// filled up.
func (n *Node) SetReserved(v bool) {
	if n.reserved && !v {
		for _, id := range n.ExpectedJobs() {
			delete(n.incoming, id)
			_ = n.mem.Remove(id)
		}
		n.notifyPressure()
	}
	n.reserved = v
}

// Down reports whether the workstation has crashed and not yet recovered.
func (n *Node) Down() bool { return n.down }

// Crash fails the workstation at virtual time now: every resident job is
// settled (uncovered residency charged as queuing delay, as in Detach) and
// removed, expected-migration holds are dropped, and any reservation is
// cleared. The displaced jobs are returned still in the running state; the
// caller decides their fate (kill or requeue) per the fault plan. The node
// accepts no work until Recover.
func (n *Node) Crash(now time.Duration) ([]*job.Job, error) {
	if n.down {
		return nil, fmt.Errorf("node %d: crash while already down", n.cfg.ID)
	}
	lost := make([]*job.Job, len(n.jobs))
	copy(lost, n.jobs)
	for i, j := range lost {
		if from := n.lanes[i].covered; now > from {
			if _, err := j.Account(0, 0, now-from, now); err != nil {
				return nil, err
			}
		}
		if err := n.mem.Remove(j.ID); err != nil {
			return nil, err
		}
	}
	for _, id := range n.ExpectedJobs() {
		delete(n.incoming, id)
		if err := n.mem.Remove(id); err != nil {
			return nil, err
		}
	}
	n.jobs = nil
	n.lanes = nil
	n.ioActive = 0
	n.reserved = false
	n.down = true
	n.reservedJobs = make(map[int]bool)
	n.mem.SetRemoteBacking(0)
	n.notifyResidency()
	n.notifyPressure()
	return lost, nil
}

// Recover repairs a crashed workstation: it rejoins the cluster empty and
// unreserved, ready to accept submissions and migrations again.
func (n *Node) Recover() error {
	if !n.down {
		return fmt.Errorf("node %d: recover while up", n.cfg.ID)
	}
	n.down = false
	return nil
}

// StartDrain marks the workstation as leaving gracefully: it accepts no new
// submissions, migrations, or holds, keeps running its resident jobs, and is
// retired once the cluster has migrated or re-placed them all. Draining is
// idempotent; a removed workstation cannot drain again.
func (n *Node) StartDrain() error {
	if n.removed {
		return fmt.Errorf("node %d: drain after removal", n.cfg.ID)
	}
	n.draining = true
	return nil
}

// Draining reports whether the workstation is draining toward removal.
func (n *Node) Draining() bool { return n.draining }

// Remove retires the workstation permanently. It must be empty: no resident
// jobs, no in-flight migration holds, and no reservation.
func (n *Node) Remove() error {
	if n.removed {
		return fmt.Errorf("node %d: already removed", n.cfg.ID)
	}
	if len(n.jobs) > 0 || len(n.incoming) > 0 {
		return fmt.Errorf("node %d: remove with %d resident jobs and %d expected migrations",
			n.cfg.ID, len(n.jobs), len(n.incoming))
	}
	if n.reserved {
		return fmt.Errorf("node %d: remove while reserved", n.cfg.ID)
	}
	n.removed = true
	n.draining = false
	return nil
}

// Removed reports whether the workstation has been retired.
func (n *Node) Removed() bool { return n.removed }

// ReservedJobCount reports how many resident jobs were admitted as special
// service under the reservation.
func (n *Node) ReservedJobCount() int {
	c := 0
	for _, j := range n.jobs {
		if n.reservedJobs[j.ID] {
			c++
		}
	}
	return c
}

// Faults reports cumulative page faults serviced on this node.
func (n *Node) Faults() float64 { return n.faults }

// IOStall reports cumulative disk stall from buffer-cache misses.
func (n *Node) IOStall() time.Duration { return n.ioStall }

// IOActiveJobs reports resident jobs with nonzero I/O rates — the I/O
// load status the load index publishes. The count is maintained
// incrementally (job I/O rates are fixed before admission).
func (n *Node) IOActiveJobs() int { return n.ioActive }

// CacheAvailability reports how much of the buffer-cache working set the
// node's I/O-active jobs can keep in memory, in [0, 1]. With no I/O-active
// jobs the cache is trivially sufficient.
func (n *Node) CacheAvailability() float64 {
	return n.cacheAvailability(n.mem.DemandMB(), n.ioActive)
}

// cacheAvailability is CacheAvailability at a given demand total and
// I/O-active count, so Advance can read it from its replay cursor.
func (n *Node) cacheAvailability(total float64, ioActive int) float64 {
	need := n.cfg.IOCacheNeedMB * float64(ioActive)
	if need <= 0 {
		return 1
	}
	avail := n.mem.IdleAtMB(total) / need
	if avail > 1 {
		return 1
	}
	return avail
}

// CPUDelivered reports cumulative CPU service delivered to jobs,
// in demand-reference seconds.
func (n *Node) CPUDelivered() time.Duration { return n.cpuDelivered }

// LoadStatus is the workstation's published load vector — the CPU, memory,
// and I/O status the load-information board collects each period.
type LoadStatus struct {
	NodeID    int
	Jobs      int
	Slots     int
	IdleMB    float64
	UserMB    float64
	Pressured bool
	Reserved  bool
	Down      bool
	Draining  bool
	Removed   bool
	HasSlot   bool
	FaultRate float64
	// IOActiveJobs and CacheAvailability are the I/O load status.
	IOActiveJobs      int
	CacheAvailability float64
}

// LoadStatus assembles the node's full published status in one call, so
// the board's periodic refresh reads each hot field exactly once instead
// of crossing eleven accessor boundaries per node.
func (n *Node) LoadStatus() LoadStatus {
	return LoadStatus{
		NodeID:            n.cfg.ID,
		Jobs:              len(n.jobs),
		Slots:             n.cfg.CPUThreshold,
		IdleMB:            n.mem.IdleMB(),
		UserMB:            n.mem.UserMB(),
		Pressured:         n.mem.Pressured(),
		Reserved:          n.reserved,
		Down:              n.down,
		Draining:          n.draining,
		Removed:           n.removed,
		HasSlot:           n.HasSlot(),
		FaultRate:         n.mem.FaultRate(),
		IOActiveJobs:      n.ioActive,
		CacheAvailability: n.CacheAvailability(),
	}
}

// Admit starts a newly submitted job on this node at time now.
func (n *Node) Admit(j *job.Job, now time.Duration) error {
	if n.down {
		return fmt.Errorf("node %d: down, cannot admit job %d", n.cfg.ID, j.ID)
	}
	if n.draining || n.removed {
		return fmt.Errorf("node %d: leaving the cluster, cannot admit job %d", n.cfg.ID, j.ID)
	}
	if !n.HasSlot() {
		return fmt.Errorf("node %d: no job slot for job %d", n.cfg.ID, j.ID)
	}
	if err := j.Start(n.cfg.ID, now); err != nil {
		return err
	}
	d := j.MemoryDemandMB()
	if err := n.mem.Register(j.ID, d); err != nil {
		return err
	}
	n.appendResident(j, now, d)
	n.notifyPressure()
	if n.tr != nil {
		n.tr.Emit(obs.Event{At: now, Kind: obs.KindJobAdmit,
			Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1, Val: d})
	}
	return nil
}

// AttachMigrated lands a migrating job on this node at time now, charging
// the given migration cost, optionally as reservation special service. A
// hold previously placed with ExpectMigration is consumed if present.
func (n *Node) AttachMigrated(j *job.Job, cost time.Duration, special bool, now time.Duration) error {
	if n.down {
		return fmt.Errorf("node %d: down, cannot land job %d", n.cfg.ID, j.ID)
	}
	if n.removed {
		return fmt.Errorf("node %d: removed, cannot land job %d", n.cfg.ID, j.ID)
	}
	_, held := n.incoming[j.ID]
	if !held && !n.HasSlot() {
		return fmt.Errorf("node %d: no job slot for migrated job %d", n.cfg.ID, j.ID)
	}
	if err := j.CompleteMigration(n.cfg.ID, cost); err != nil {
		return err
	}
	d := j.MemoryDemandMB()
	if held {
		delete(n.incoming, j.ID)
		if err := n.mem.Update(j.ID, d); err != nil {
			return err
		}
	} else if err := n.mem.Register(j.ID, d); err != nil {
		return err
	}
	n.appendResident(j, now, d)
	n.notifyPressure()
	if special {
		n.reservedJobs[j.ID] = true
	}
	if n.tr != nil {
		var fl uint8
		if special {
			fl = obs.FlagSpecial
		}
		n.tr.Emit(obs.Event{At: now, Kind: obs.KindMigrationComplete, Flags: fl,
			Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1, Val: cost.Seconds()})
	}
	return nil
}

// Detach removes a job for migration away at virtual time now, freezing
// it. Any residency interval not yet covered by a quantum tick is settled
// as queuing delay so the Section 5 time decomposition stays exact.
func (n *Node) Detach(j *job.Job, now time.Duration) error {
	idx := -1
	for i, r := range n.jobs {
		if r.ID == j.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("node %d: job %d not resident", n.cfg.ID, j.ID)
	}
	if from := n.lanes[idx].covered; now > from {
		if _, err := j.Account(0, 0, now-from, now); err != nil {
			return err
		}
	}
	if err := j.BeginMigration(now); err != nil {
		return err
	}
	if err := n.mem.Remove(j.ID); err != nil {
		return err
	}
	n.removeResidentAt(idx)
	delete(n.reservedJobs, j.ID)
	n.notifyPressure()
	return nil
}

// MostMemoryIntensiveJob returns the resident job with the largest current
// memory demand (the reconfiguration routine's find_most_memory_intensive_
// job()), or nil when the node is empty. Ties break toward the job that has
// been resident longest (lowest index), matching the paper's observation
// that long-stayed jobs are predicted to stay longer.
func (n *Node) MostMemoryIntensiveJob() *job.Job {
	var best *job.Job
	bestDemand := -1.0
	for _, j := range n.jobs {
		if d := j.MemoryDemandMB(); d > bestDemand {
			best = j
			bestDemand = d
		}
	}
	return best
}

// Snapshot captures the workstation's complete mutable state for cluster
// forking: flags, resident jobs (the pointers; job state is snapshotted
// separately by the cluster), per-job accounting baselines, demand caches,
// migration holds, the memory manager, and cumulative counters.
type Snapshot struct {
	mem          memory.Snapshot
	jobs         []*job.Job
	reserved     bool
	down         bool
	draining     bool
	removed      bool
	reservedJobs map[int]bool
	lanes        []lane
	ioActive     int
	lastPressure bool
	incoming     map[int]float64
	faults       float64
	cpuDelivered time.Duration
	ioStall      time.Duration
}

// Snapshot captures the node's mutable state.
func (n *Node) Snapshot() Snapshot {
	s := Snapshot{
		mem:          n.mem.Snapshot(),
		jobs:         append([]*job.Job(nil), n.jobs...),
		reserved:     n.reserved,
		down:         n.down,
		draining:     n.draining,
		removed:      n.removed,
		lanes:        append([]lane(nil), n.lanes...),
		ioActive:     n.ioActive,
		lastPressure: n.lastPressured,
		faults:       n.faults,
		cpuDelivered: n.cpuDelivered,
		ioStall:      n.ioStall,
	}
	if len(n.reservedJobs) > 0 {
		s.reservedJobs = maps.Clone(n.reservedJobs)
	}
	if len(n.incoming) > 0 {
		s.incoming = maps.Clone(n.incoming)
	}
	return s
}

// Restore rewinds the node to a prior Snapshot, reusing live capacity. It
// deliberately does not invoke the residency or pressure watchers: the
// cluster restores its activity and pressure bitmasks wholesale alongside
// the nodes.
func (n *Node) Restore(s Snapshot) {
	n.mem.Restore(s.mem)
	n.jobs = append(n.jobs[:0], s.jobs...)
	n.lanes = append(n.lanes[:0], s.lanes...)
	n.reserved = s.reserved
	n.down = s.down
	n.draining = s.draining
	n.removed = s.removed
	n.ioActive = s.ioActive
	n.lastPressured = s.lastPressure
	n.faults = s.faults
	n.cpuDelivered = s.cpuDelivered
	n.ioStall = s.ioStall
	clear(n.reservedJobs)
	maps.Copy(n.reservedJobs, s.reservedJobs)
	clear(n.incoming)
	maps.Copy(n.incoming, s.incoming)
}

// CompletionFloor reports a stretch length k ≤ kMax during which no
// resident job can possibly complete, whatever the memory pressure does
// meanwhile: per-tick CPU progress is bounded by the full execution share
// converted at zero stall, so (remaining-1)/maxCPU ticks are provably
// non-final. The cluster uses the cluster-wide minimum as the window
// within which quantum ticks cannot trigger scheduler callbacks.
func (n *Node) CompletionFloor(dt time.Duration, kMax int64) int64 {
	count := len(n.jobs)
	if count == 0 || dt <= 0 {
		return kMax
	}
	exec := n.execShare(dt, count)
	if exec <= 0 {
		return kMax // no CPU progress possible, so no completions either
	}
	maxCPU := time.Duration(exec.Seconds()*n.SpeedFactor()*float64(time.Second)) + 1
	k := kMax
	for _, j := range n.jobs {
		kj := int64((j.Remaining() - 1) / maxCPU)
		if kj == 0 {
			// A resident job could complete on the very next tick even at
			// maximal per-quantum progress: no stretch exists. Returning
			// immediately skips the remaining residents, and the cluster
			// then advances every node one quantum at a time, delivering
			// any completion to the scheduler at its own instant.
			return 0
		}
		if kj < k {
			k = kj
		}
	}
	return k
}

// lane is one resident job's accounting state: covered, the virtual time
// up to which its execution has been accounted, so a job admitted
// mid-quantum is credited only for its residency; demand, its memory
// demand as registered with the manager; and flat, the CPU-service horizon
// up to which that demand provably holds (a flat memory phase), so the
// demand lookup is skipped until then. The rest is Advance's scratch: the
// job's service as the stretch advances it, the charge of one fully
// resident quantum at the current stall, and the exact integer sums
// charged so far. The fields every quantum reads come first.
type lane struct {
	j      *job.Job
	end    time.Duration // the job's CPU demand
	run    time.Duration // CPU service including this stretch's charges
	flat   time.Duration
	demand float64
	cpu    time.Duration // one fully resident quantum's CPU charge

	covered         time.Duration
	page, queue, io time.Duration

	sumCPU, sumPage, sumQueue time.Duration
}

// quantum holds the invariants every job's charge in one quantum shares:
// the execution share and the paging and cache-miss stalls read from the
// demand total at the quantum's start, with the full quantum's charge of a
// job doing no I/O, which is every such job's. Everything in it is a pure
// function of its inputs, so it carries over from one Advance to the next.
type quantum struct {
	dt        time.Duration
	jobs      int
	exec      time.Duration
	execSec   float64
	v         float64
	diskMBps  float64
	stall     float64
	denomBase float64
	cacheMiss float64

	cpu, page, queue time.Duration // a full quantum's charge of a job doing no I/O
}

// execShare is each of count resident jobs' execution time in a quantum
// dt: an equal round-robin share, less context-switch overhead when
// multiprogrammed.
func (n *Node) execShare(dt time.Duration, count int) time.Duration {
	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	if exec := share - overhead; exec > 0 {
		return exec
	}
	return 0
}

// charge is the share of one quantum of a job doing ioRate MB/s of I/O:
// resid of residency, rem of outstanding CPU demand. The fast paths skip
// a float operation only where IEEE 754 makes it an exact identity (x/1 ==
// x, x+0 == x for x >= 0).
func (q *quantum) charge(ioRate float64, resid, rem time.Duration) (cpu, page, queue, io time.Duration) {
	execSec := q.execSec
	if q.exec > resid {
		execSec = resid.Seconds()
	}
	// In execution wall time w the job splits between compute (cpu/v),
	// paging (cpu*stall), and buffer-cache-miss disk time (cpu*ioStall):
	// cpu = w / (1/v + stall + ioStall).
	ioStall := 0.0
	if ioRate > 0 && q.cacheMiss > 0 && q.diskMBps > 0 {
		ioStall = ioRate / q.diskMBps * q.cacheMiss
	}
	cpuSec := execSec
	if denom := q.denomBase + ioStall; denom != 1 {
		cpuSec = execSec / denom
	}
	cpu = time.Duration(cpuSec * float64(time.Second))
	if cpu >= rem {
		cpu = rem
	}
	computeWall := cpu
	if q.v != 1 {
		computeWall = time.Duration(float64(cpu) / q.v)
	}
	// Both paging and cache-miss disk time are memory-pressure-induced
	// I/O waits; the Section 5 decomposition folds them into the paging
	// component.
	if ps := q.stall + ioStall; ps != 0 {
		page = time.Duration(float64(cpu) * ps)
	}
	queue = resid - computeWall - page
	if queue < 0 {
		queue = 0
	}
	if ioStall != 0 {
		io = time.Duration(float64(cpu) * ioStall)
	}
	return cpu, page, queue, io
}

// kernel is one Advance call's working state: the lanes and their shared
// charges, the replayed demand total with its fault rate, and the float
// accumulators that must be added to in quantum order.
type kernel struct {
	n        *Node
	lanes    []lane // the node's lanes of jobs still running
	ids      []int
	mbs      []float64
	dt       time.Duration
	q        quantum
	charged  int           // job count the lanes' charges are for; 0 before the first
	fs       time.Duration // fault service time
	rep      memory.Replay
	user     float64
	fr       float64 // fault rate at rep's total unless frStale
	frStale  bool
	faults   float64
	changed  bool          // some job's demand moved
	e        time.Duration // quanta charged at the lanes' charges, not yet summed
	at       time.Duration // end of the quantum being charged
	ioActive int

	// done backs Advance's completed-jobs return value. Callers consume
	// the slice before the node's next Advance, so reusing one backing
	// array keeps completion-bearing quanta allocation-free.
	done []*job.Job
}

// Advance charges k consecutive scheduling quanta of length dt, the first
// ending at virtual time now. In each quantum the resident jobs share the
// CPU round-robin: each receives an equal share, loses context-switch
// overhead when multiprogrammed, and converts execution time into CPU
// progress at the node's speed factor, degraded by the paging stall of the
// demand total at the quantum's start (and, for I/O-active jobs, by
// buffer-cache misses). A job admitted mid-quantum is credited only for
// its residency. Completed jobs are removed and returned; the slice is
// reused by the next call.
//
// Every float operation runs in one quantum's per-job order, on scratch
// state: a memory.Replay cursor for the demand total and a service cursor
// per job. Charges are recomputed only when the stall, the cache miss, or
// the job count moves; until then they accrue as a count of quanta that is
// multiplied out exactly. A run of quanta in which no job completes or
// crosses its flat-phase horizon moves nothing else, so it is skipped in
// one step; only its order-sensitive page-fault addends are still added
// one at a time. The result is therefore bit-identical to k calls with
// k = 1. The pressure watcher is notified once, at the end: pressure
// moves only the watcher's bit.
func (n *Node) Advance(dt, now time.Duration, k int64) ([]*job.Job, error) {
	if dt <= 0 || k < 1 {
		return nil, fmt.Errorf("node %d: cannot advance %d quanta of %v", n.cfg.ID, k, dt)
	}
	if len(n.jobs) == 0 {
		return nil, nil
	}
	kr := &n.kern
	clear(kr.done) // drop the last call's job references
	kr.n, kr.lanes, kr.dt, kr.charged, kr.e = n, n.lanes, dt, 0, 0
	kr.fs, kr.rep, kr.user = n.mem.FaultServiceTime(), n.mem.Replay(), n.mem.UserMB()
	kr.frStale, kr.faults, kr.changed = true, n.faults, false
	kr.ioActive, kr.done = n.ioActive, kr.done[:0]
	partial := false // some job's first quantum credits partial residency
	for i := range kr.lanes {
		l := &kr.lanes[i]
		l.end, l.run = l.j.CPUDemand, l.j.CPUDone()
		l.sumCPU, l.sumPage, l.sumQueue = 0, 0, 0
		partial = partial || l.covered > now-dt
	}

	for t := int64(0); t < k && len(kr.lanes) > 0; {
		kr.recharge()
		// A first quantum that credits partial residency is charged apart
		// for every job and stays out of the count.
		first, limit := t == 0 && partial, k
		if first {
			limit = 1
		} else if k-t > 1 {
			if m := foldable(kr.lanes, k-t); m > 0 {
				kr.fold(m)
				if t += m; t == k {
					break
				}
			}
		}
		next, died := kr.quanta(t, limit, now+time.Duration(t)*dt, !first)
		if died {
			if err := kr.retire(now + time.Duration(next-1)*dt); err != nil {
				return nil, err
			}
		}
		t = next
	}
	n.settle(kr.lanes, kr.e)

	last := now + time.Duration(k-1)*dt
	kr.ids, kr.mbs = kr.ids[:0], kr.mbs[:0]
	for i := range kr.lanes {
		l := &kr.lanes[i]
		if _, err := l.j.Account(l.sumCPU, l.sumPage, l.sumQueue, last); err != nil {
			return nil, err
		}
		l.covered = last
		kr.ids, kr.mbs = append(kr.ids, l.j.ID), append(kr.mbs, l.demand)
	}
	n.faults = kr.faults
	if len(kr.done) > 0 {
		n.ioActive = kr.ioActive
		n.notifyResidency()
	}
	if kr.changed {
		if err := n.mem.ReplayDemands(kr.ids, kr.mbs, kr.rep.Total()); err != nil {
			return nil, err
		}
	}
	n.notifyPressure()
	return kr.done, nil
}

// recharge reads the stall and cache miss at the cursor's total. If they
// or the job count moved, it sums the quanta counted at the old charges
// and recomputes every lane's charge. Charges are computed unclamped: a
// quantum that would complete its job is charged apart.
func (kr *kernel) recharge() {
	stall := 0.0 // FaultRateAt is exactly 0 unpressured, so stall is too
	if kr.rep.Total() > kr.user {
		if kr.frStale {
			kr.refault(kr.rep)
		}
		stall = kr.fr * kr.fs.Seconds()
	}
	cacheMiss := 1 - kr.n.cacheAvailability(kr.rep.Total(), kr.ioActive)
	if kr.charged == len(kr.lanes) && stall == kr.q.stall && cacheMiss == kr.q.cacheMiss {
		return
	}
	kr.n.settle(kr.lanes, kr.e)
	kr.e, kr.charged = 0, len(kr.lanes)
	q := &kr.q // carried over from the last call where its key still holds
	if q.dt != kr.dt || q.jobs != kr.charged || q.v == 0 {
		q.dt, q.jobs, q.v, q.diskMBps = kr.dt, kr.charged, kr.n.SpeedFactor(), kr.n.cfg.DiskMBps
		q.exec = kr.n.execShare(q.dt, q.jobs)
		q.execSec, q.stall = q.exec.Seconds(), math.NaN() // NaN: recompute below
	}
	if stall != q.stall || cacheMiss != q.cacheMiss {
		q.stall, q.denomBase, q.cacheMiss = stall, 1/q.v+stall, cacheMiss
		q.cpu, q.page, q.queue, _ = q.charge(0, kr.dt, math.MaxInt64)
	}
	for i := range kr.lanes {
		l := &kr.lanes[i]
		if rate := l.j.IORate(); rate > 0 {
			l.cpu, l.page, l.queue, l.io = q.charge(rate, kr.dt, math.MaxInt64)
		} else {
			l.cpu, l.page, l.queue, l.io = q.cpu, q.page, q.queue, 0
		}
	}
}

// quanta charges the quanta from t up to limit one at a time, the first
// ending at at, and returns the next t and whether a job completed (which
// ends the run). Within a quantum each job in turn takes its charge,
// checks for faults against the total as moved by earlier jobs this
// quantum, then completes or looks up the demand its progress reaches.
// A quantum that looks up nothing also ends the run, so the caller can
// fold what follows. counted adds each quantum to the count.
func (kr *kernel) quanta(t, limit int64, at time.Duration, counted bool) (int64, bool) {
	const (
		looked = 1 << iota
		moved
		died
	)
	lanes, rep, user := kr.lanes, kr.rep, kr.user
	// Until a step of the total brings pressure on, an unpressured node
	// without I/O-active jobs keeps its charges whatever its demand.
	steady := kr.q.stall == 0 && kr.ioActive == 0
	kr.at = at
	var run uint8 // what the quantum did
	for {
		run = 0
		for i := range lanes {
			l := &lanes[i]
			cpu := l.cpu
			if !counted || cpu >= l.end-l.run {
				var ok bool
				if cpu, ok = kr.chargeApart(l); !ok {
					continue
				}
			}
			l.run += cpu
			if rep.Total() > user { // the fault rate is nonzero exactly under pressure
				if kr.frStale {
					kr.refault(rep)
				}
				kr.faults += float64(cpu) / float64(time.Second) * kr.fr
			}
			if l.run >= l.end {
				rep = rep.Step(l.demand, 0) // x + (0-d) is x - d exactly: Remove's arithmetic
				kr.frStale, run = true, run|died
			} else if l.run > l.flat {
				// Demand evolves with progress; look it up only once the
				// job has run past the flat-phase horizon within which its
				// demand provably cannot move.
				d, horizon := l.j.DemandHorizonAt(l.run)
				if d != l.demand {
					rep = rep.Step(l.demand, d)
					kr.frStale, run = true, run|moved
					l.demand = d
				}
				l.flat, run = horizon, run|looked
			}
		}
		t++
		kr.at += kr.dt
		if counted {
			kr.e++
		}
		if run&moved != 0 {
			kr.changed = true
		}
		if t == limit || run&(died|looked) != looked {
			break
		}
		if run&moved != 0 && (!steady || rep.Total() > user) {
			kr.rep = rep
			kr.recharge()
			steady = kr.q.stall == 0 && kr.ioActive == 0
		}
	}
	kr.rep = rep
	return t, run&died != 0
}

// refault reads the fault rate at the cursor's total.
func (kr *kernel) refault(rep memory.Replay) {
	kr.fr, kr.frStale = rep.FaultRate(), false
}

// chargeApart charges l's quantum ending at at outside the count, adding
// it to the sums directly: a partially resident first quantum, or the
// quantum that completes the job. It reports false for a job admitted at
// at itself, which that quantum does not charge at all.
func (kr *kernel) chargeApart(l *lane) (time.Duration, bool) {
	resid := kr.dt
	if from := l.covered; from > kr.at-kr.dt {
		if resid = kr.at - from; resid <= 0 {
			return 0, false // admitted at this instant: accounting starts now
		}
	}
	cpu, page, queue, io := kr.q.charge(l.j.IORate(), resid, l.end-l.run)
	l.sumCPU += cpu
	l.sumPage += page
	l.sumQueue += queue
	kr.n.cpuDelivered += cpu
	kr.n.ioStall += io
	return cpu, true
}

// fold skips m quanta that move no demand: only the service cursors and
// the count advance, and the page-fault addends are added in order.
func (kr *kernel) fold(m int64) {
	mq := time.Duration(m)
	for i := range kr.lanes {
		kr.lanes[i].run += mq * kr.lanes[i].cpu
	}
	kr.e += mq
	if kr.rep.Total() > kr.user {
		if kr.frStale {
			kr.refault(kr.rep)
		}
		fr, faults := kr.fr, kr.faults
		for s := int64(0); s < m; s++ {
			for i := range kr.lanes {
				faults += float64(kr.lanes[i].cpu) / float64(time.Second) * fr
			}
		}
		kr.faults = faults
	}
}

// retire finalizes the jobs that completed in the quantum ending at at —
// accounting, memory release, trace — and drops them and their lanes from
// the node.
func (kr *kernel) retire(at time.Duration) error {
	// The completing quantum was charged apart; the count excludes it (a
	// first quantum never joined the count, which is then zero).
	n, r, e := kr.n, 0, max(kr.e-1, 0)
	for i := range kr.lanes {
		l := &kr.lanes[i]
		if l.run < l.end {
			if r != i {
				kr.lanes[r], n.jobs[r] = *l, n.jobs[i]
			}
			r++
			continue
		}
		j := l.j
		n.settle(kr.lanes[i:i+1], e)
		if _, err := j.Account(l.sumCPU, l.sumPage, l.sumQueue, at); err != nil {
			return err
		}
		if err := n.mem.Remove(j.ID); err != nil {
			return err
		}
		delete(n.reservedJobs, j.ID)
		if n.tr != nil {
			n.tr.Emit(obs.Event{At: at, Kind: obs.KindJobDone,
				Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1})
		}
		if j.IORate() > 0 {
			kr.ioActive--
		}
		kr.done = append(kr.done, j)
	}
	clear(kr.lanes[r:])
	clear(n.jobs[r:])
	kr.lanes, n.lanes, n.jobs = kr.lanes[:r], kr.lanes[:r], n.jobs[:r]
	return nil
}

// settle adds e quanta at each lane's current charge to its sums and to
// the node's delivered-CPU and I/O-stall counters: integer sums, so the
// multiply is exact.
func (n *Node) settle(lanes []lane, e time.Duration) {
	if e == 0 {
		return
	}
	var cpu, io time.Duration
	for i := range lanes {
		l := &lanes[i]
		l.sumCPU += e * l.cpu
		l.sumPage += e * l.page
		l.sumQueue += e * l.queue
		cpu += l.cpu
		io += l.io
	}
	n.cpuDelivered += e * cpu
	n.ioStall += e * io
}

// foldable reports how many of the next kMax quanta leave every job short
// of completion and inside its flat phase: those quanta move no demand
// and repeat the lanes' charges.
func foldable(lanes []lane, kMax int64) int64 {
	for i := range lanes {
		if l := &lanes[i]; l.run+l.cpu > l.flat || l.run+l.cpu >= l.end {
			return 0 // the very next quantum looks up a demand or completes
		}
	}
	m := kMax
	for i := range lanes {
		if l := &lanes[i]; l.cpu > 0 {
			m = min(m, int64((min(l.flat, l.end-1)-l.run)/l.cpu))
		}
	}
	return m
}
