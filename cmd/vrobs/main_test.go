package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// writeSampleTrace builds a small hand-made trace exercising every report
// section: one closed episode, one reservation with a special migration,
// and node samples for the Gantt chart.
func writeSampleTrace(t *testing.T) string {
	t.Helper()
	events := []obs.Event{
		{At: 0, Kind: obs.KindJobSubmit, Node: 0, Job: 1, Aux: 0},
		{At: 10 * time.Millisecond, Kind: obs.KindJobAdmit, Node: 0, Job: 1, Aux: -1, Val: 40},
		{At: time.Second, Kind: obs.KindEpisodeOpen, Node: -1, Job: -1, Aux: -1},
		{At: time.Second, Kind: obs.KindReserveAcquire, Node: 2, Job: 1, Aux: -1, Val: 120},
		{At: 2 * time.Second, Kind: obs.KindNodeSample, Node: 0, Job: -1, Aux: 1, Val: 88},
		{At: 2 * time.Second, Kind: obs.KindNodeSample, Node: 2, Job: -1, Aux: 0, Val: 64, Flags: obs.FlagReserved},
		{At: 3 * time.Second, Kind: obs.KindMigrationStart, Node: 0, Job: 1, Aux: 2, Val: 120, Flags: obs.FlagSpecial},
		{At: 4 * time.Second, Kind: obs.KindMigrationComplete, Node: 2, Job: 1, Aux: -1, Val: 1, Flags: obs.FlagSpecial},
		{At: 5 * time.Second, Kind: obs.KindReserveRelease, Node: 2, Job: -1, Aux: -1, Val: 4},
		{At: 5 * time.Second, Kind: obs.KindEpisodeClose, Node: -1, Job: -1, Aux: -1, Val: 4},
		{At: 6 * time.Second, Kind: obs.KindNodeSample, Node: 0, Job: -1, Aux: 0, Val: 128},
		{At: 6 * time.Second, Kind: obs.KindNodeSample, Node: 2, Job: -1, Aux: 1, Val: 8},
		{At: 7 * time.Second, Kind: obs.KindJobDone, Node: 2, Job: 1, Aux: -1},
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummarizesTrace(t *testing.T) {
	path := writeSampleTrace(t)
	var buf bytes.Buffer
	if err := run([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"13 events",
		"blocking episodes: 1",
		"complete: 1",
		"reservations: 1",
		"node 2   reserved 4s",
		"migrations completed: 1",
		"latency p50:",
		"per-node timeline",
		"node 0",
		"'R' reserved",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The Gantt row for node 2 must show its reserved sample.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "node 2   |") && !strings.Contains(line, "R") {
			t.Errorf("node 2 Gantt row lost the reserved state: %q", line)
		}
	}
}

func TestRunGanttOff(t *testing.T) {
	path := writeSampleTrace(t)
	var buf bytes.Buffer
	if err := run([]string{"-gantt=false", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "per-node timeline") {
		t.Error("-gantt=false still rendered the timeline")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Error("missing file argument should fail")
	}
	if err := run([]string{"/nonexistent/trace.jsonl"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file should fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &bytes.Buffer{}); err == nil {
		t.Error("empty trace should fail")
	}
}

// TestFlightDumpReplaysThroughVrobs is the acceptance check for the
// flight recorder's output contract: a dump produced during a real run is
// a plain JSONL event trace that the summarizer consumes without errors.
func TestFlightDumpReplaysThroughVrobs(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "flight.jsonl")
	sink := func(reason string, events []obs.Event) error {
		f, err := os.Create(dump)
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(f, events); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	tr, err := trace.Standard(workload.Group1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	cfg.Obs = obs.NewStreamTracer()
	rec := obs.NewFlightRecorder(obs.FlightConfig{Ring: 512, Sink: sink})
	cfg.Obs.SetFlightRecorder(rec)
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tr); err != nil {
		t.Fatal(err)
	}
	rec.Trigger("test")
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	if rec.Dumps() != 1 {
		t.Fatalf("dumps = %d", rec.Dumps())
	}

	if err := run([]string{dump}, io.Discard); err != nil {
		t.Fatalf("vrobs failed on flight dump: %v", err)
	}
}

// TestVrobsMalformedLineNumber pins the CI contract: a malformed record
// fails with its line number and path in the error.
func TestVrobsMalformedLineNumber(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	content := "{\"t\":0,\"k\":\"job-submit\",\"n\":-1,\"j\":0,\"a\":-1,\"v\":0,\"f\":0}\n" +
		"{\"t\":1,\"k\":\"job-submit\",\"n\":-1,\"j\":1,\"a\":-1,\"v\":0,\"f\":0}\n" +
		"{\"t\":2,\"k\":\"no-such-kind\",\"n\":-1,\"j\":2,\"a\":-1,\"v\":0,\"f\":0}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3 mentioned", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want path mentioned", err)
	}
}

// TestCountersBlockMatchesRunResult replays a traced fault run through
// vrobs: the counters block folded from the JSONL must equal the run's
// Result counters, PendingPeak aside. Every counted decision therefore
// reaches the user's tracer, not only the collector.
func TestCountersBlockMatchesRunResult(t *testing.T) {
	tr, err := trace.Standard(workload.Group1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = 100 * time.Millisecond
	cfg.Faults = faults.Plan{
		MTBF:          20 * time.Minute,
		Crash:         faults.Requeue,
		DropRate:      0.1,
		AbortRate:     0.2,
		Domains:       4,
		PartitionMTBF: 30 * time.Minute,
	}
	cfg.Autoscale = cluster.AutoscaleConfig{MaxNodes: len(cfg.Nodes) + 4, Proto: cfg.Nodes[0]}
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, c.Tracer().Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-gantt=false", path}, &buf); err != nil {
		t.Fatal(err)
	}

	block := map[string]string{}
	lines := strings.Split(buf.String(), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "run counters") {
			continue
		}
		for _, l := range lines[i+1:] {
			fields := strings.Fields(l)
			if len(fields) != 2 {
				break
			}
			block[fields[0]] = fields[1]
		}
	}
	want := reflect.ValueOf(res.Counters)
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if name == "PendingPeak" {
			continue
		}
		label := name
		if name == "BlockingEpisodes" {
			label = "NoDestinationHits"
		}
		got, ok := block[label]
		if !ok {
			t.Errorf("counters block has no %s line:\n%s", label, buf.String())
			continue
		}
		if w := fmt.Sprint(want.Field(i)); got != w {
			t.Errorf("%s: vrobs folded %s, run counted %s", label, got, w)
		}
	}
	if res.NodeCrashes == 0 || res.MigrationAborts == 0 || res.RefreshDrops == 0 ||
		res.DomainPartitions == 0 || res.AutoscaleUps == 0 || res.BlockingEpisodes == 0 {
		t.Errorf("fault run left key counters at zero; the comparison is vacuous: %+v", res.Counters)
	}
}
