package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/experiments"
	"vrcluster/internal/metrics"
	"vrcluster/internal/sim"
	"vrcluster/internal/trace"
)

// cellTimeout bounds one cell's host time. The slowest cell takes well
// under a second, so a cell still running after this is wedged.
const cellTimeout = 60 * time.Second

var errCellTimeout = fmt.Errorf("cell exceeded %v of host time", cellTimeout)

// cellResult is one simulation cell's outcome in a pass.
type cellResult struct {
	key     string
	dur     time.Duration
	segment int // calibration segment the cell ran in
	res     *metrics.Result
	digest  string
	err     error
}

// digest condenses the outcome a speedup must never move: the paper's
// totals, the decision counts and the job count.
func digest(r *metrics.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.TotalExec))
	put(uint64(r.TotalQueue))
	put(math.Float64bits(r.MeanSlowdown))
	put(uint64(r.Migrations))
	put(uint64(r.Reservations))
	put(uint64(r.BlockingEpisodes))
	put(uint64(r.Jobs))
	return fmt.Sprintf("%016x", h.Sum64())
}

// drive runs an armed engine one event at a time until it stops, the way
// Engine.Run would, so the traced run can count events and time the loop.
func drive(e *sim.Engine, lg *ledger) error {
	start := time.Now()
	var n int64
	for !e.Stopped() && e.Step() {
		n++
		if n&4095 == 0 && time.Since(start) > cellTimeout {
			return errCellTimeout
		}
	}
	if lg != nil {
		lg.events += n
		lg.step += time.Since(start)
	}
	return nil
}

// freshCell is one complete run: a constructed cluster and its trace.
type freshCell struct {
	key string
	tr  *trace.Trace
	c   *cluster.Cluster
}

// run arms the trace, drives the engine and summarizes the result.
func (fc *freshCell) run(lg *ledger) (*metrics.Result, error) {
	t0 := time.Now()
	if err := fc.c.Start(fc.tr); err != nil {
		return nil, err
	}
	if lg != nil {
		lg.start += time.Since(t0)
	}
	if err := drive(fc.c.Engine(), lg); err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := fc.c.Finish(fc.tr.Name)
	if lg != nil {
		lg.finish += time.Since(t1)
	}
	return res, err
}

// forkGroup is one warmup shared by several what-if continuations.
type forkGroup struct {
	keyPrefix string
	tr        *trace.Trace
	c         *cluster.Cluster
	at        time.Duration
	whatIfs   []experiments.WhatIf
	probe     *probeSched // nil when untraced
}

// pass is one closed-loop sweep over a workload's cells, built by the
// workload's set-up. Cells run in sequence.
type pass struct {
	fresh []*freshCell
	forks []*forkGroup
	lg    *ledger // nil for a timed (untraced) pass
}

// cells reports how many cells a pass runs.
func (p *pass) cells() int {
	n := len(p.fresh)
	for _, g := range p.forks {
		n += len(g.whatIfs)
	}
	return n
}

// run executes every cell in order and returns their outcomes; between
// cells it lets cal (if any) sample the host.
func (p *pass) run(cal *calibrator) []cellResult {
	out := make([]cellResult, 0, p.cells())
	for _, fc := range p.fresh {
		cal.tick()
		t0 := time.Now()
		res, err := fc.run(p.lg)
		out = append(out, cellResult{key: fc.key, dur: time.Since(t0), segment: cal.segment(), res: res, err: err})
	}
	for _, g := range p.forks {
		cal.tick()
		out = g.run(p.lg, cal, out)
	}
	for i := range out {
		if out[i].err == nil {
			out[i].digest = digest(out[i].res)
			p.lg.noteResult(out[i].res)
		}
	}
	return out
}

// run simulates the warmup once, snapshots it, and finishes every what-if
// from the restored snapshot. A failed warmup fails every continuation.
func (g *forkGroup) run(lg *ledger, cal *calibrator, out []cellResult) []cellResult {
	fail := func(err error) []cellResult {
		for _, w := range g.whatIfs {
			out = append(out, cellResult{key: g.keyPrefix + w.Name, err: err})
		}
		return out
	}
	t0 := time.Now()
	if err := g.c.Start(g.tr); err != nil {
		return fail(err)
	}
	if err := g.c.RunToDivergence(g.at); err != nil {
		return fail(err)
	}
	t1 := time.Now()
	snap, err := g.c.Snapshot()
	if err != nil {
		return fail(err)
	}
	if lg != nil {
		lg.warmup += t1.Sub(t0)
		lg.snapshot += time.Since(t1)
		lg.snapshots++
	}
	finished := 0
	for _, w := range g.whatIfs {
		cal.tick()
		tc := time.Now()
		res, err := g.finish(snap, w, lg)
		out = append(out, cellResult{key: g.keyPrefix + w.Name, dur: time.Since(tc), segment: cal.segment(), res: res, err: err})
		if lg != nil && err == nil {
			lg.tail += time.Since(tc)
			lg.forkFresh += g.c.Engine().Now()
			finished++
		}
	}
	if lg != nil && finished > 0 {
		// Run fresh, every continuation would re-simulate the warmup.
		lg.forkSkipped += time.Duration(finished-1) * g.at
	}
	return out
}

// finish is one what-if continuation: Restore, apply, drive, Finish.
func (g *forkGroup) finish(snap *cluster.Snapshot, w experiments.WhatIf, lg *ledger) (*metrics.Result, error) {
	t0 := time.Now()
	if err := g.c.Restore(snap); err != nil {
		return nil, err
	}
	if lg != nil {
		lg.restore += time.Since(t0)
		lg.restores++
	}
	if g.probe != nil {
		g.probe.last = g.at
	}
	if err := w.Apply(g.c); err != nil {
		return nil, fmt.Errorf("what-if %s: %w", w.Name, err)
	}
	if err := drive(g.c.Engine(), lg); err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := g.c.Finish(fmt.Sprintf("%s/%s", g.tr.Name, w.Name))
	if lg != nil {
		lg.finish += time.Since(t1)
	}
	return res, err
}

// check compares each cell with its reference digest and, when timed is
// given, with the timed pass's digest of the same cell. It returns the
// number of failed cells and the first failure.
func check(results []cellResult, ref map[string]string, timed map[string]string) (int, error) {
	failed := 0
	var first error
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, r := range results {
		want, ok := ref[r.key]
		switch {
		case r.err != nil:
			note(fmt.Errorf("%s: %w", r.key, r.err))
		case !ok:
			note(fmt.Errorf("%s: no reference digest", r.key))
		case r.digest != want:
			note(fmt.Errorf("%s: digest %s, reference %s", r.key, r.digest, want))
		case timed != nil && timed[r.key] != r.digest:
			note(fmt.Errorf("%s: traced digest %s, timed digest %s", r.key, r.digest, timed[r.key]))
		}
	}
	return failed, first
}

// digests indexes a pass's digests by cell key.
func digests(results []cellResult) map[string]string {
	m := make(map[string]string, len(results))
	for _, r := range results {
		if r.err == nil {
			m[r.key] = r.digest
		}
	}
	return m
}
