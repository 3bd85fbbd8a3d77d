package node

import (
	"fmt"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/obs"
)

// referenceTick is the workstation model written out once, plainly, for
// one quantum: the oracle Advance must reproduce bit for bit. It is kept
// deliberately unoptimised — no scratch state, no folding — so that it
// can be read against the model's description rather than trusted.
func (n *Node) referenceTick(dt time.Duration, now time.Duration) ([]*job.Job, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("node %d: nonpositive quantum %v", n.cfg.ID, dt)
	}
	count := len(n.jobs)
	if count == 0 {
		return nil, nil
	}

	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	exec := share - overhead
	if exec < 0 {
		exec = 0
	}

	v := n.SpeedFactor()
	stall := n.mem.StallPerCPUSecond() // wall seconds of paging per CPU second
	// Buffer-cache squeeze: when idle memory cannot hold the I/O-active
	// jobs' cache working sets, their reads and writes go to the disk.
	cacheMiss := 1 - n.CacheAvailability()

	// Loop invariants, hoisted. The fast paths below skip float operations
	// only when IEEE 754 guarantees the skipped operation is an exact
	// identity (x/1 == x, x+0 == x for x >= 0), so results stay
	// bit-identical to the straight-line arithmetic.
	execSecFull := exec.Seconds()
	denomBase := 1/v + stall
	lo := now - dt

	var done []*job.Job
	for i, j := range n.jobs {
		// Credit only the portion of the quantum the job was actually
		// resident for (it may have been admitted mid-quantum).
		resid := dt
		if from := n.lanes[i].covered; from > lo {
			resid = now - from
		}
		n.lanes[i].covered = now
		if resid <= 0 {
			continue
		}
		execHere := exec
		execSec := execSecFull
		if execHere > resid {
			execHere = resid
			execSec = execHere.Seconds()
		}
		// In execution wall time w the job splits between compute
		// (cpu/v), paging (cpu*stall), and buffer-cache-miss disk time
		// (cpu*ioStall): cpu = w / (1/v + stall + ioStall).
		ioStall := 0.0
		if rate := j.IORate(); rate > 0 && cacheMiss > 0 && n.cfg.DiskMBps > 0 {
			ioStall = rate / n.cfg.DiskMBps * cacheMiss
		}
		cpuSec := execSec
		if denom := denomBase + ioStall; denom != 1 {
			cpuSec = execSec / denom
		}
		cpu := time.Duration(cpuSec * float64(time.Second))
		if rem := j.Remaining(); cpu >= rem {
			cpu = rem
		}
		computeWall := cpu
		if v != 1 {
			computeWall = time.Duration(float64(cpu) / v)
		}
		// Both paging and cache-miss disk time are memory-pressure-
		// induced I/O waits; the Section 5 decomposition folds them into
		// the paging component.
		page := time.Duration(0)
		if ps := stall + ioStall; ps != 0 {
			page = time.Duration(float64(cpu) * ps)
		}
		queue := resid - computeWall - page
		if queue < 0 {
			queue = 0
		}
		finished, err := j.Account(cpu, page, queue, now)
		if err != nil {
			return nil, err
		}
		if n.mem.Pressured() { // FaultRate is nonzero exactly under pressure
			n.faults += float64(cpu) / float64(time.Second) * n.mem.FaultRate()
		}
		if ioStall != 0 {
			n.ioStall += time.Duration(float64(cpu) * ioStall)
		}
		n.cpuDelivered += cpu
		if finished {
			done = append(done, j)
			if err := n.mem.Remove(j.ID); err != nil {
				return nil, err
			}
			delete(n.reservedJobs, j.ID)
			if n.tr != nil {
				n.tr.Emit(obs.Event{At: now, Kind: obs.KindJobDone,
					Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1})
			}
			continue
		}
		// Demand evolves with progress; refresh the memory manager only
		// when the job has run past the flat-phase horizon within which
		// its demand provably cannot move.
		if j.CPUDone() > n.lanes[i].flat {
			d, horizon := j.DemandHorizon()
			if d != n.lanes[i].demand {
				if err := n.mem.Update(j.ID, d); err != nil {
					return nil, err
				}
				n.lanes[i].demand = d
			}
			n.lanes[i].flat = horizon
		}
	}
	if len(done) > 0 {
		k := 0
		for i, j := range n.jobs {
			if j.State() == job.StateDone {
				if j.IORate() > 0 {
					n.ioActive--
				}
				continue
			}
			n.jobs[k] = j
			n.lanes[k] = n.lanes[i]
			k++
		}
		for i := k; i < len(n.jobs); i++ {
			n.jobs[i] = nil
		}
		n.jobs = n.jobs[:k]
		n.lanes = n.lanes[:k]
		n.notifyResidency()
	}
	// Demand refreshes and completions above may have moved pressure in
	// either direction; one transition check covers the whole tick.
	n.notifyPressure()
	return done, nil
}
