package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
)

func buildNode(t *testing.T, id int, capacityMB float64) *node.Node {
	t.Helper()
	n, err := node.New(node.Config{
		ID: id, CPUSpeedMHz: 400, CPUThreshold: 4,
		Memory: memory.Config{CapacityMB: capacityMB, UserFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func doneJob(t *testing.T, id int, cpu, wall time.Duration) *job.Job {
	t.Helper()
	j, err := job.New(id, "p", cpu, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(0, 0); err != nil {
		t.Fatal(err)
	}
	queue := wall - cpu
	if done, err := j.Account(cpu, 0, queue, wall); err != nil || !done {
		t.Fatalf("account: %v %v", done, err)
	}
	return j
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Error("zero interval should error")
	}
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval() != time.Second {
		t.Errorf("Interval = %v", c.Interval())
	}
}

func TestObserveAndAverages(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := buildNode(t, 0, 100)
	b := buildNode(t, 1, 100)
	j, err := job.New(1, "p", time.Hour, []job.Phase{{EndFrac: 1, StartMB: 40, EndMB: 40}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		c.Observe(time.Duration(i)*time.Second, []*node.Node{a, b}, 0)
	}
	idle, err := c.AvgIdleMB(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle-160) > 1e-9 {
		t.Errorf("avg idle = %v, want 160", idle)
	}
	skew, err := c.AvgSkew(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// counts are {1, 0}: population stddev 0.5.
	if math.Abs(skew-0.5) > 1e-9 {
		t.Errorf("avg skew = %v, want 0.5", skew)
	}
}

func TestReservedNodesExcludedFromSkew(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := buildNode(t, 0, 100)
	b := buildNode(t, 1, 100)
	b.SetReserved(true)
	c.Observe(time.Second, []*node.Node{a, b}, 0)
	skew, err := c.AvgSkew(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if skew != 0 {
		t.Errorf("single non-reserved node should yield zero skew, got %v", skew)
	}
	// Reserved node's idle memory still counts toward the volume.
	idle, err := c.AvgIdleMB(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if idle != 200 {
		t.Errorf("idle = %v, want 200", idle)
	}
}

func TestIntervalSubsampling(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n := buildNode(t, 0, 100)
	for i := 1; i <= 60; i++ {
		c.Observe(time.Duration(i)*time.Second, []*node.Node{n}, 0)
	}
	// Constant series: every interval yields the same average — the
	// paper's insensitivity observation holds trivially here.
	for _, every := range []time.Duration{time.Second, 10 * time.Second, 30 * time.Second, time.Minute} {
		got, err := c.AvgIdleMB(every)
		if err != nil {
			t.Fatal(err)
		}
		if got != 100 {
			t.Errorf("avg at %v = %v, want 100", every, got)
		}
	}
	if _, err := c.AvgIdleMB(time.Millisecond); err == nil {
		t.Error("interval below base should error")
	}
}

func TestAveragesWithoutSamples(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AvgIdleMB(time.Second); err == nil {
		t.Error("empty collector should error")
	}
}

func TestBuildResult(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n := buildNode(t, 0, 100)
	c.Observe(time.Second, []*node.Node{n}, 0)
	for i := 0; i < 3; i++ {
		c.Count(obs.Event{Kind: obs.KindMigrationStart})
	}
	c.Count(obs.Event{Kind: obs.KindNoDestination, Aux: 2})

	jobs := []*job.Job{
		doneJob(t, 1, 10*time.Second, 20*time.Second), // slowdown 2
		doneJob(t, 2, 10*time.Second, 40*time.Second), // slowdown 4
	}
	r, err := BuildResult("T", "P", jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 2 || r.Trace != "T" || r.Policy != "P" {
		t.Errorf("header = %+v", r)
	}
	if r.TotalExec != 60*time.Second {
		t.Errorf("TotalExec = %v, want 60s", r.TotalExec)
	}
	if r.TotalCPU != 20*time.Second || r.TotalQueue != 40*time.Second {
		t.Errorf("breakdown cpu=%v queue=%v", r.TotalCPU, r.TotalQueue)
	}
	if r.MeanSlowdown != 3 || r.MaxSlowdown != 4 {
		t.Errorf("slowdowns mean=%v max=%v", r.MeanSlowdown, r.MaxSlowdown)
	}
	if r.Makespan != 40*time.Second {
		t.Errorf("makespan = %v", r.Makespan)
	}
	if r.Migrations != 3 || r.BlockingEpisodes != 2 {
		t.Errorf("counters = %+v", r)
	}
	// The decomposition identity: exec = cpu + page + queue + mig.
	if r.TotalExec != r.TotalCPU+r.TotalPage+r.TotalQueue+r.TotalMig {
		t.Error("Section 5 identity violated")
	}
}

func TestBuildResultRejectsUnfinished(t *testing.T) {
	j, err := job.New(1, "p", time.Second, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildResult("T", "P", []*job.Job{j}, nil); err == nil {
		t.Error("pending job should be rejected")
	}
	if _, err := BuildResult("T", "P", nil, nil); err == nil {
		t.Error("empty job list should be rejected")
	}
}

func TestBuildResultNilCollector(t *testing.T) {
	jobs := []*job.Job{doneJob(t, 1, time.Second, time.Second)}
	r, err := BuildResult("T", "P", jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgIdleMB != 0 || r.Collector() != nil {
		t.Error("nil collector should leave sampling fields zero")
	}
}

func TestReduction(t *testing.T) {
	tests := []struct {
		base, got, want float64
	}{
		{100, 70, 0.3},
		{100, 100, 0},
		{100, 130, -0.3},
		{0, 5, 0},
	}
	for _, tt := range tests {
		if got := Reduction(tt.base, tt.got); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Reduction(%v, %v) = %v, want %v", tt.base, tt.got, got, tt.want)
		}
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, []*node.Node{buildNode(t, 0, 100)}, 0)
	s := c.Samples()
	s[0].IdleMB = -1
	if c.Samples()[0].IdleMB == -1 {
		t.Error("Samples leaked internal slice")
	}
}

func TestWriteJobsCSV(t *testing.T) {
	jobs := []*job.Job{
		doneJob(t, 1, 10*time.Second, 20*time.Second),
		doneJob(t, 2, 5*time.Second, 5*time.Second),
	}
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job,program") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",2.0000,") {
		t.Errorf("row 1 missing slowdown 2: %q", lines[1])
	}
	// Unfinished jobs are rejected.
	pending, err := job.New(9, "p", time.Second, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJobsCSV(&buf, []*job.Job{pending}); err == nil {
		t.Error("pending job should be rejected")
	}
}

func TestWriteCSVSeries(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, []*node.Node{buildNode(t, 0, 100)}, 3)
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "seconds,idle_mb") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, ",3,") {
		t.Errorf("pending count missing: %q", out)
	}
}
