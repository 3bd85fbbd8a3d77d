package main

import (
	"fmt"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reports the per-layer metrics of a traced run, per pass.
// Counts repeat exactly from pass to pass; times are means over passes.
func layerMetrics(lg *ledger, passes int) map[string]metric {
	n := float64(passes)
	perPass := func(v float64) float64 { return v / n }
	var obsEvents uint64
	for _, s := range lg.series {
		obsEvents += seriesEvents(s)
	}
	return map[string]metric{
		"policy.place_calls":          {perPass(float64(lg.placeCalls)), "count"},
		"policy.place_ok_ratio":       {ratio(float64(lg.placeOK), float64(lg.placeCalls)), "ratio"},
		"policy.place_ms":             {perPass(ms(lg.placeTime())), "ms"},
		"policy.control_calls":        {perPass(float64(lg.controlCalls)), "count"},
		"policy.control_ms":           {perPass(ms(lg.controlTime())), "ms"},
		"policy.done_ms":              {perPass(ms(lg.doneTime())), "ms"},
		"policy.migrations":           {perPass(float64(lg.migrations)), "count"},
		"core.reservations":           {perPass(float64(lg.reservations)), "count"},
		"cluster.blocking_episodes":   {perPass(float64(lg.episodes)), "count"},
		"sim.events":                  {perPass(float64(lg.events)), "count"},
		"sim.step_ms":                 {perPass(ms(lg.stepTime())), "ms"},
		"cluster.self_ms":             {perPass(ms(lg.selfTime())), "ms"},
		"node.active_node_quanta":     {perPass(float64(lg.activeNodeQuanta)), "count"},
		"node.pressured_share":        {ratio(float64(lg.pressSampl), float64(lg.activeSamples)), "ratio"},
		"cluster.ns_per_node_quantum": {ratio(float64(lg.selfTime().Nanoseconds()), float64(lg.activeNodeQuanta)), "ns"},
		"loadinfo.refresh_ns":         {ratio(float64(lg.refresh.Nanoseconds()), float64(lg.refreshes)), "ns"},
		"loadinfo.changed_ratio":      {ratio(float64(lg.changedNodes), float64(lg.refreshedNodes)), "ratio"},
		"loadinfo.select_ns":          {ratio(float64(lg.selectDur.Nanoseconds()), float64(lg.selects)), "ns"},
		"fork.warmup_ms":              {perPass(ms(lg.warmup)), "ms"},
		"fork.snapshot_us":            {ratio(float64(lg.snapshot.Nanoseconds())/1e3, float64(lg.snapshots)), "us"},
		"fork.restore_us":             {ratio(float64(lg.restore.Nanoseconds())/1e3, float64(lg.restores)), "us"},
		"fork.tail_ms":                {perPass(ms(lg.tail)), "ms"},
		"fork.reuse_ratio":            {ratio(float64(lg.forkSkipped), float64(lg.forkFresh)), "ratio"},
		"obs.events":                  {perPass(float64(obsEvents)), "count"},
		"trace.generate_ms":           {perPass(ms(lg.generate)), "ms"},
	}
}

// printLedger prints where one traced pass spent its host time, as ms per
// pass and as a share of the untraced pass's wall_s. The rows above the
// line partition the traced pass. cluster.self is what the step loop
// spent outside the policy, so it is a residual, not a measurement.
func printLedger(name string, lg *ledger, passes int, wallS, eventNs float64, captured int) {
	n := float64(passes)
	row := func(label string, d time.Duration, note string) {
		v := ms(d) / n
		fmt.Printf("  %-30s %10.2f %7.1f%%  %s\n", label, v, 100*v/(wallS*1e3), note)
	}
	parts := []struct {
		label string
		d     time.Duration
		note  string
	}{
		{"cluster.start", lg.start, "Cluster.Start of fresh cells"},
		{"policy.place", lg.placeTime(), ""},
		{"policy.control", lg.controlTime(), ""},
		{"policy.done", lg.doneTime(), ""},
		{"cluster.self", lg.selfTime(), "RESIDUAL: step loop minus policy"},
		{"cluster.finish", lg.finish, "Cluster.Finish"},
		{"fork.warmup", lg.warmup, "Start + RunToDivergence"},
		{"fork.snapshot", lg.snapshot, ""},
		{"fork.restore", lg.restore, ""},
		{"probe.board+sampling", lg.probe, "traced run only"},
		{"probe.clock_reads", lg.clockCost(), "traced run only"},
	}
	fmt.Printf("layer ledger: %s, ms per pass over %d traced passes; share of untraced wall_s %.4f s\n", name, passes, wallS)
	fmt.Printf("  %-30s %10s %8s\n", "layer", "ms", "share")
	rest := lg.wall
	for _, p := range parts {
		row(p.label, p.d, p.note)
		rest -= p.d
	}
	row("harness", rest, "traced pass wall minus the rows above")
	row("traced pass wall", lg.wall, "")
	fmt.Println("  outside the pass:")
	row("trace.generate", lg.generate, "set-up")
	fmt.Println("  inside cluster.self, estimated from isolated costs:")
	row("sim engine", time.Duration(float64(lg.events)*eventNs), "events x sim.ns_per_event_isolated")
	row("loadinfo refresh", lg.refresh, "shadow refresh, same nodes and instants as the live one")
	if len(lg.series) > 0 {
		fmt.Println("  policy time after a what-if swaps the scheduler counts in cluster.self")
	}
	fmt.Printf("  (obs.emit_ns replays %d events captured from one cell)\n", captured)
}

// captureEvents records the complete event stream of one cell — group 1's
// lightest standard trace under V-Reconfiguration — for the sink replays.
func captureEvents(seed int64) ([]obs.Event, error) {
	tr, err := trace.Standard(workload.Group1, 1, seed)
	if err != nil {
		return nil, err
	}
	sched, err := core.NewVReconfiguration(core.Options{Rule: core.RuleFullDrain})
	if err != nil {
		return nil, err
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = paperQuantum
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, sched)
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(tr); err != nil {
		return nil, err
	}
	return c.Tracer().Events(), nil
}
