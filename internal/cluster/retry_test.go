package cluster

import (
	"testing"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
)

// blockingScheduler blocks every submission, except that it "places" jobs
// with odd IDs on a nonexistent node so place() requeues them mid-pass.
type blockingScheduler struct{}

func (blockingScheduler) Name() string { return "blocking" }

func (blockingScheduler) Place(_ *Cluster, j *job.Job, _ int) (int, bool, bool) {
	if j.ID%2 == 1 {
		return -1, false, true
	}
	return -1, false, false
}

func (blockingScheduler) OnControl(*Cluster, time.Duration)        {}
func (blockingScheduler) OnJobDone(*Cluster, *node.Node, *job.Job) {}

// TestRetryPendingAllocationFree pins the double-buffered retry queue: a
// pass over many blocked submissions — some blocked by the policy, some
// requeued by place() in the middle of the pass — allocates nothing once
// both buffers have grown, and keeps the queue in FIFO order.
func TestRetryPendingAllocationFree(t *testing.T) {
	const blocked = 128
	c, err := New(Homogeneous(4, node.Config{
		CPUSpeedMHz:  400,
		CPUThreshold: 2,
		Memory:       memory.Config{CapacityMB: 64, UserFraction: 1},
	}), blockingScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocked; i++ {
		j, err := job.New(i, "p", time.Second, []job.Phase{{EndFrac: 1, StartMB: 8, EndMB: 8}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.pending = append(c.pending, pendingSubmission{j: j, home: i % 4})
	}
	c.retryPending() // prime: the spare buffer grows to the queue's size

	if allocs := testing.AllocsPerRun(100, c.retryPending); allocs != 0 {
		t.Errorf("retry pass over %d blocked submissions: %v allocs, want 0", blocked, allocs)
	}
	if len(c.pending) != blocked {
		t.Fatalf("pending = %d after retries, want %d", len(c.pending), blocked)
	}
	for i, p := range c.pending {
		if p.j.ID != i || p.home != i%4 {
			t.Fatalf("pending[%d] = job %d home %d: FIFO order lost", i, p.j.ID, p.home)
		}
	}
	if &c.pending[0] == &c.pendingNext[:1][0] {
		t.Fatal("pending and its spare buffer share a backing array")
	}
}
