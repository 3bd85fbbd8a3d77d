// Observability contract: the structured event trace is a pure function of
// (trace, seed) — byte-identical at any fan-out width — and is the stream
// the metrics collector's counters are folded from. These tests pin the
// acceptance criteria for the tracing layer end to end.
package vrcluster_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/runner"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// tracedRun executes one standard trace with an unbounded tracer installed
// and returns the collected events alongside the run's metrics.
func tracedRun(t *testing.T, g workload.Group, level int, plan faults.Plan) ([]obs.Event, *metrics.Result) {
	t.Helper()
	tr, err := trace.Standard(g, level, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := equivCluster(g)
	cfg.Quantum = equivQuantum
	cfg.Faults = plan
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return c.Tracer().Events(), res
}

// traceJSONL renders events to the wire format used by vrsim -trace.
func traceJSONL(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalAcrossParallelWidths runs levels 1..3 of group 1
// through the fan-out runner at widths 1 and 8. Every level's JSONL trace
// must come out byte-identical regardless of how many workers raced, which
// is what makes -trace usable together with -parallel.
func TestTraceByteIdenticalAcrossParallelWidths(t *testing.T) {
	levels := []int{1, 2, 3}
	runWidth := func(parallel int) [][]byte {
		out, err := runner.Map(parallel, levels, func(_ int, lvl int) ([]byte, error) {
			tr, err := trace.Standard(workload.Group1, lvl, 1)
			if err != nil {
				return nil, err
			}
			sched, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
			if err != nil {
				return nil, err
			}
			cfg := cluster.Cluster1()
			cfg.Quantum = equivQuantum
			cfg.Obs = obs.NewTracer(0)
			c, err := cluster.New(cfg, sched)
			if err != nil {
				return nil, err
			}
			if _, err := c.Run(tr); err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := obs.WriteJSONL(&buf, c.Tracer().Events()); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sequential := runWidth(1)
	wide := runWidth(8)
	for i, lvl := range levels {
		if len(sequential[i]) == 0 {
			t.Fatalf("level %d produced an empty trace", lvl)
		}
		if !bytes.Equal(sequential[i], wide[i]) {
			t.Errorf("level %d trace differs between -parallel 1 and -parallel 8", lvl)
		}
	}
}

// TestTraceEpisodesAndReservationsComplete checks the analysis contract on
// a real level-3 run: at least one blocking episode opens and closes, and
// every reservation acquire is paired with its lifecycle events.
func TestTraceEpisodesAndReservationsComplete(t *testing.T) {
	events, res := tracedRun(t, workload.Group1, 3, faults.Plan{})
	counts := obs.CountByKind(events)

	episodes := obs.Episodes(events)
	complete := 0
	for _, s := range episodes {
		if s.Complete {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no complete blocking episode in %d episodes (result reports %d)",
			len(episodes), res.BlockingEpisodes)
	}

	if counts[obs.KindReserveAcquire] == 0 {
		t.Fatal("level-3 run acquired no reservations")
	}
	// Each fresh reservation and each lease reselection acquires a node.
	if got, want := counts[obs.KindReserveAcquire], res.Reservations+res.LeaseReselections; got != want {
		t.Errorf("reserve-acquire events %d vs collector reservations+reselections %d", got, want)
	}
	spans := obs.ReservationSpans(events)
	completeSpans := 0
	for _, s := range spans {
		if s.Complete {
			completeSpans++
		}
	}
	if completeSpans == 0 {
		t.Error("no reservation span released before the end of the run")
	}
	// Every promote must sit inside the lifecycle of some acquire.
	if counts[obs.KindReservePromote] > counts[obs.KindReserveAcquire] {
		t.Errorf("%d promotes exceed %d acquires", counts[obs.KindReservePromote], counts[obs.KindReserveAcquire])
	}
}

// TestPerfettoExportOfRealRun validates the Chrome trace-event export
// against a full run: well-formed JSON, per-track monotonic timestamps,
// and balanced duration spans.
func TestPerfettoExportOfRealRun(t *testing.T) {
	events, _ := tracedRun(t, workload.Group1, 3, faults.Plan{})
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
			TID int    `json:"tid"`
			TS  int64  `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto export is empty")
	}
	lastTS := map[[2]int]int64{}
	depth := map[[2]int]int{}
	for _, pe := range doc.TraceEvents {
		key := [2]int{pe.PID, pe.TID}
		switch pe.Ph {
		case "M":
			continue
		case "B":
			depth[key]++
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("unbalanced E on track %v", key)
			}
		}
		if prev, ok := lastTS[key]; ok && pe.TS < prev {
			t.Fatalf("track %v ts went backwards: %d after %d", key, pe.TS, prev)
		}
		lastTS[key] = pe.TS
	}
	for key, d := range depth {
		if d != 0 {
			t.Fatalf("track %v left %d spans open", key, d)
		}
	}
}

// TestRecordReplayRoundTrip closes the paper's trace-driven loop at
// standard-trace scale: record a run, rebuild a trace from the log, replay
// it, and require the replayed jobs' identities and lifetimes to match the
// recorded headers exactly.
func TestRecordReplayRoundTrip(t *testing.T) {
	tr, err := trace.Standard(workload.Group2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Cluster2()
	cfg.Quantum = equivQuantum
	cfg.RecordInterval = 10 * time.Millisecond
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	log := c.Recording()
	if log == nil {
		t.Fatal("no recording captured")
	}
	if len(log.Jobs) != res.Jobs {
		t.Fatalf("recorded %d jobs, ran %d", len(log.Jobs), res.Jobs)
	}

	replay, err := trace.FromLog(log, workload.Group2)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cluster.Cluster2()
	cfg2.Quantum = equivQuantum
	c2, err := cluster.New(cfg2, sched2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs != res.Jobs || res2.Completed != res.Completed {
		t.Fatalf("replay ran %d/%d jobs, recording had %d/%d",
			res2.Jobs, res2.Completed, res.Jobs, res.Completed)
	}

	// Index the recorded headers by submission time and program; every
	// replayed job must match one header's lifetime and home exactly.
	type key struct {
		submit  int64
		program string
	}
	headers := map[key][]struct {
		cpu  int64
		home int
	}{}
	for _, jt := range log.Jobs {
		h := jt.Header
		k := key{h.SubmitMillis, h.Program}
		headers[k] = append(headers[k], struct {
			cpu  int64
			home int
		}{h.CPUMillis, h.Home})
	}
	for _, j := range c2.RanJobs() {
		k := key{j.SubmitAt.Milliseconds(), j.Program}
		cands := headers[k]
		found := -1
		for i, h := range cands {
			if h.cpu == j.CPUDemand.Milliseconds() {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatalf("replayed job %d (%s submit %v cpu %v) matches no recorded header",
				j.ID, j.Program, j.SubmitAt, j.CPUDemand)
		}
		headers[k] = append(cands[:found], cands[found+1:]...)
	}
	for k, rest := range headers {
		if len(rest) > 0 {
			t.Errorf("%d recorded headers for %v never replayed", len(rest), k)
		}
	}
}
