package node

import (
	"math"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/job"
)

// pressuredPair builds two identical nodes loaded past their user memory
// with ramping-demand jobs, so every quantum runs the stall-feedback
// regime: each refresh moves the total, hence the next quantum's stall.
// It returns the end of the first quantum still to charge.
func pressuredPair(t *testing.T) (ref, adv *Node, now time.Duration) {
	t.Helper()
	mk := func() *Node {
		n := newNode(t, 100, 4)
		for id, ph := range [][]job.Phase{
			{{EndFrac: 0.8, StartMB: 30, EndMB: 70}, {EndFrac: 1, StartMB: 70, EndMB: 70}},
			{{EndFrac: 0.6, StartMB: 40, EndMB: 90}, {EndFrac: 1, StartMB: 90, EndMB: 50}},
		} {
			admit(t, n, mkJob(t, id, 30*time.Second, ph, 0), 0)
		}
		return n
	}
	ref, adv = mk(), mk()
	// Warm both onto the ramp until the node is pressured.
	q := 10 * time.Millisecond
	for !ref.Pressured() {
		now += q
		for _, n := range []*Node{ref, adv} {
			if _, err := n.referenceTick(q, now); err != nil {
				t.Fatal(err)
			}
		}
		if now > time.Minute {
			t.Fatal("nodes never became pressured")
		}
	}
	if !adv.Pressured() {
		t.Fatal("twin nodes diverged during warmup")
	}
	return ref, adv, now + q
}

func mkJob(t testing.TB, id int, cpu time.Duration, phases []job.Phase, ioRate float64) *job.Job {
	t.Helper()
	j, err := job.New(id, "x", cpu, phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.SetIORate(ioRate)
	return j
}

func admit(t testing.TB, n *Node, j *job.Job, at time.Duration) {
	t.Helper()
	if err := n.Admit(j, at); err != nil {
		t.Fatal(err)
	}
}

// twin builds the same node twice with setup, which admits jobs and may
// warm the node with reference ticks; it returns the end of the first
// quantum still to charge.
func twin(t *testing.T, capacityMB float64, setup func(n *Node) time.Duration) (ref, adv *Node, now time.Duration) {
	t.Helper()
	ref, adv = newNode(t, capacityMB, 8), newNode(t, capacityMB, 8)
	now = setup(ref)
	if setup(adv) != now {
		t.Fatal("twin setups disagree")
	}
	return ref, adv, now
}

// nodeState flattens everything a quantum may touch, floats as bit
// patterns so that -0, +0 and one-ULP differences all count.
type nodeState struct {
	Faults, Total            uint64
	CPUDelivered, IOStall    time.Duration
	Pressured, LastPressured bool
	IOActive                 int
	IDs                      []int
	Demand                   []uint64
	Covered, Flat            []time.Duration
	Done                     []time.Duration
	Acct                     []job.Breakdown
	States                   []job.State
	Registered               int
}

func snapState(n *Node) nodeState {
	s := nodeState{
		Faults:        math.Float64bits(n.Faults()),
		Total:         math.Float64bits(n.Memory().DemandMB()),
		CPUDelivered:  n.CPUDelivered(),
		IOStall:       n.IOStall(),
		Pressured:     n.Pressured(),
		LastPressured: n.lastPressured,
		IOActive:      n.ioActive,
		Registered:    n.Memory().Jobs(),
	}
	for i, j := range n.jobs {
		s.IDs = append(s.IDs, j.ID)
		l := n.lanes[i]
		s.Demand = append(s.Demand, math.Float64bits(l.demand))
		s.Covered = append(s.Covered, l.covered)
		s.Flat = append(s.Flat, l.flat)
		s.Done = append(s.Done, j.CPUDone())
		s.Acct = append(s.Acct, j.Breakdown())
		s.States = append(s.States, j.State())
	}
	return s
}

func requireSameState(t *testing.T, ref, adv *Node, what string) {
	t.Helper()
	if r, a := snapState(ref), snapState(adv); !reflect.DeepEqual(r, a) {
		t.Fatalf("%s: state diverges:\n reference %+v\n advance   %+v", what, r, a)
	}
}

// stretch charges k quanta from now on both nodes — k reference ticks
// against one Advance — and requires identical completions and state. It
// reports how many pressure transitions the reference saw on the way.
func stretch(t *testing.T, ref, adv *Node, dt, now time.Duration, k int64, what string) (flips int) {
	t.Helper()
	type finish struct {
		ID   int
		At   time.Duration
		Acct job.Breakdown
	}
	record := func(out []finish, done []*job.Job) []finish {
		for _, j := range done {
			at, err := j.DoneAt()
			if err != nil {
				t.Fatalf("%s: job %d returned unfinished: %v", what, j.ID, err)
			}
			out = append(out, finish{j.ID, at, j.Breakdown()})
		}
		return out
	}
	var refDone, advDone []finish
	p := ref.Pressured()
	for s := int64(0); s < k; s++ {
		done, err := ref.referenceTick(dt, now+time.Duration(s)*dt)
		if err != nil {
			t.Fatal(err)
		}
		refDone = record(refDone, done)
		if ref.Pressured() != p {
			p, flips = !p, flips+1
		}
	}
	done, err := adv.Advance(dt, now, k)
	if err != nil {
		t.Fatal(err)
	}
	advDone = record(advDone, done)
	if !reflect.DeepEqual(refDone, advDone) {
		t.Fatalf("%s: completions diverge:\n reference %+v\n advance   %+v", what, refDone, advDone)
	}
	requireSameState(t, ref, adv, what)
	return flips
}

// TestAdvanceMatchesReference pins Advance(k) bit-identical to k reference
// ticks in every regime the kernel folds or replays.
func TestAdvanceMatchesReference(t *testing.T) {
	const q = 10 * time.Millisecond
	flat := func(mb float64) []job.Phase { return []job.Phase{{EndFrac: 1, StartMB: mb, EndMB: mb}} }
	cases := []struct {
		name     string
		pair     func(t *testing.T) (ref, adv *Node, now time.Duration)
		k        int64
		rounds   int
		minFlips int // pressure transitions required inside one stretch
		wantDone bool
	}{
		{name: "flat", k: 200, rounds: 4, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 200, func(n *Node) time.Duration {
				for id, mb := range []float64{30, 40, 50} {
					admit(t, n, mkJob(t, id, time.Duration(20+id)*time.Second, flat(mb), 0), 0)
				}
				return q
			})
		}},
		{name: "ramp up", k: 150, rounds: 4, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 200, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 3*time.Second, []job.Phase{{EndFrac: 0.7, StartMB: 10, EndMB: 80}, {EndFrac: 1, StartMB: 80, EndMB: 80}}, 0), 0)
				admit(t, n, mkJob(t, 1, 4*time.Second, flat(40), 0), 0)
				admit(t, n, mkJob(t, 2, 2*time.Second, []job.Phase{{EndFrac: 0.2, StartMB: 5, EndMB: 5}, {EndFrac: 1, StartMB: 5, EndMB: 60}}, 0), 0)
				return q
			})
		}},
		{name: "ramp down across user memory", k: 2500, rounds: 1, minFlips: 2, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 100, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 60*time.Second, flat(50), 0), 0)
				admit(t, n, mkJob(t, 1, 30*time.Second, []job.Phase{
					{EndFrac: 0.1, StartMB: 20, EndMB: 70},
					{EndFrac: 0.2, StartMB: 70, EndMB: 20},
					{EndFrac: 1, StartMB: 20, EndMB: 20},
				}, 0), 0)
				return q
			})
		}},
		{name: "pressured flat", k: 200, rounds: 3, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 100, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 40*time.Second, flat(60), 0), 0)
				admit(t, n, mkJob(t, 1, 50*time.Second, flat(55), 0), 0)
				return q
			})
		}},
		{name: "pressured ramp", k: 50, rounds: 6, pair: pressuredPair},
		{name: "io under cache squeeze", k: 300, rounds: 3, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 100, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 30*time.Second, flat(70), 4), 0)
				admit(t, n, mkJob(t, 1, 30*time.Second, []job.Phase{{EndFrac: 0.5, StartMB: 5, EndMB: 40}, {EndFrac: 1, StartMB: 40, EndMB: 40}}, 2), 0)
				admit(t, n, mkJob(t, 2, 30*time.Second, flat(3), 0), 0)
				return q
			})
		}},
		{name: "remote backing", k: 50, rounds: 4, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			ref, adv, now := pressuredPair(t)
			ref.Memory().SetRemoteBacking(2 * time.Millisecond)
			adv.Memory().SetRemoteBacking(2 * time.Millisecond)
			return ref, adv, now
		}},
		{name: "partial first quantum", k: 100, rounds: 2, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 100, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 20*time.Second, flat(60), 0), 0)
				admit(t, n, mkJob(t, 1, 20*time.Second, []job.Phase{{EndFrac: 1, StartMB: 20, EndMB: 45}}, 0), 0)
				if _, err := n.referenceTick(q, q); err != nil {
					t.Fatal(err)
				}
				admit(t, n, mkJob(t, 2, 20*time.Second, flat(10), 0), q+q/3)
				admit(t, n, mkJob(t, 3, 20*time.Second, flat(5), 0), 2*q) // resident for none of the first quantum
				return 2 * q
			})
		}},
		{name: "completion mid-list", k: 1, rounds: 1, wantDone: true, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			// The short job's removal drops the total below user memory
			// before the last job's fault check.
			return twin(t, 100, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 20*time.Second, flat(40), 0), 0)
				admit(t, n, mkJob(t, 1, time.Millisecond, flat(50), 0), 0)
				admit(t, n, mkJob(t, 2, 20*time.Second, flat(30), 0), 0)
				return q
			})
		}},
		{name: "completion mid-stretch", k: 400, rounds: 2, wantDone: true, pair: func(t *testing.T) (*Node, *Node, time.Duration) {
			return twin(t, 100, func(n *Node) time.Duration {
				admit(t, n, mkJob(t, 0, 20*time.Second, flat(40), 3), 0)
				admit(t, n, mkJob(t, 1, 300*time.Millisecond, []job.Phase{{EndFrac: 1, StartMB: 40, EndMB: 70}}, 1), 0)
				admit(t, n, mkJob(t, 2, 20*time.Second, flat(10), 0), 0)
				return q
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, adv, now := c.pair(t)
			requireSameState(t, ref, adv, "setup")
			before := ref.NumJobs()
			for r := 0; r < c.rounds; r++ {
				if flips := stretch(t, ref, adv, q, now, c.k, c.name); flips < c.minFlips {
					t.Fatalf("stretch saw %d pressure transitions, want at least %d", flips, c.minFlips)
				}
				now += time.Duration(c.k) * q
			}
			if finished := ref.NumJobs() < before; finished != c.wantDone {
				t.Fatalf("completions in the case: %v, want %v", finished, c.wantDone)
			}
		})
	}
}

// TestTickPressuredBatchMatchesDense pins the pressured stall-feedback
// regime: Advance over several consecutive stretches of a pressured,
// ramping node stays bit-identical to sequential reference ticks.
func TestTickPressuredBatchMatchesDense(t *testing.T) {
	const q, k = 10 * time.Millisecond, 50
	ref, adv, now := pressuredPair(t)
	for round := 0; round < 6; round++ {
		if !ref.Pressured() {
			t.Fatalf("round %d: node left the pressured regime", round)
		}
		stretch(t, ref, adv, q, now, k, "pressured stretch")
		now += k * q
	}
}

// TestTickPressuredBatchBailsAndLeavesNodeUntouched drives a pressured node
// across the pressure boundary (a ramp-down past user memory) inside one
// stretch. Advance never bails there: it must commit exactly what the
// reference ticks commit, including the final unpressured state.
func TestTickPressuredBatchBailsAndLeavesNodeUntouched(t *testing.T) {
	const q, k = 10 * time.Millisecond, 2000
	// One big flat job plus one that ramps down steeply: demand starts at
	// 120 MB total (pressured) and falls under 100 MB within the stretch.
	flat := []job.Phase{{EndFrac: 1, StartMB: 60, EndMB: 60}}
	down := []job.Phase{{EndFrac: 0.5, StartMB: 60, EndMB: 10}, {EndFrac: 1, StartMB: 10, EndMB: 10}}
	ref, adv, now := twin(t, 100, func(n *Node) time.Duration {
		for id, ph := range [][]job.Phase{flat, down} {
			admit(t, n, mkJob(t, id, 20*time.Second, ph, 0), 0)
		}
		if _, err := n.referenceTick(q, q); err != nil { // settle first-quantum residency
			t.Fatal(err)
		}
		return 2 * q
	})
	if !ref.Pressured() {
		t.Fatal("node should start pressured")
	}
	if flips := stretch(t, ref, adv, q, now, k, "crossing stretch"); flips < 1 {
		t.Fatal("stretch never crossed the pressure boundary")
	}
	if adv.Pressured() || adv.NumJobs() != 2 {
		t.Fatalf("after the crossing: pressured=%v jobs=%d, want unpressured with both jobs", adv.Pressured(), adv.NumJobs())
	}
}

// TestTickPressuredBatchUnpressuredRefuses pins the unpressured side of the
// old regime split: there is no refusal any more, and Advance over an
// unpressured node matches the reference ticks and stays unpressured.
func TestTickPressuredBatchUnpressuredRefuses(t *testing.T) {
	const q, k = 10 * time.Millisecond, 50
	ref, adv, now := twin(t, 100, func(n *Node) time.Duration {
		admit(t, n, newJob(t, 1, 10*time.Second, 20), 0)
		if _, err := n.referenceTick(q, q); err != nil {
			t.Fatal(err)
		}
		return 2 * q
	})
	for round := 0; round < 3; round++ {
		if flips := stretch(t, ref, adv, q, now, k, "unpressured stretch"); flips != 0 || adv.Pressured() {
			t.Fatalf("round %d: unpressured node saw %d pressure transitions", round, flips)
		}
		now += k * q
	}
}

// FuzzAdvanceMatchesReference checks Advance(k) against k reference ticks
// over random node shapes: job count, phase endpoints, capacity, stretch
// length, remote backing, and a mid-quantum admission.
func FuzzAdvanceMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(30), uint8(90), uint8(40), uint8(128), uint8(100), uint16(200), false, uint8(0), uint16(3000))
	f.Add(uint8(2), uint8(40), uint8(90), uint8(90), uint8(150), uint8(80), uint16(50), true, uint8(4), uint16(20000))
	f.Add(uint8(5), uint8(10), uint8(60), uint8(20), uint8(60), uint8(120), uint16(1), false, uint8(7), uint16(40))
	f.Add(uint8(4), uint8(70), uint8(5), uint8(70), uint8(200), uint8(60), uint16(700), true, uint8(2), uint16(900))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(255), uint8(0), uint16(64), false, uint8(9), uint16(1))
	f.Add(uint8(3), uint8(200), uint8(200), uint8(200), uint8(128), uint8(150), uint16(300), false, uint8(0), uint16(30000))
	f.Fuzz(func(t *testing.T, jobs, startMB, peakMB, endMB, split, capMB uint8, k uint16, remote bool, admitAt uint8, cpuMs uint16) {
		const q = 10 * time.Millisecond
		count := int(jobs%6) + 1
		kq := int64(k%1024) + 1
		setup := func(n *Node) time.Duration {
			if remote {
				n.Memory().SetRemoteBacking(3 * time.Millisecond)
			}
			frac := float64(split%254+1) / 256
			late := admitAt%10 != 0 // the last job arrives mid-way through the second quantum
			for id := 0; id < count; id++ {
				// Rotate the endpoints so the jobs differ.
				a, b, c := float64(startMB), float64(peakMB), float64(endMB)
				for r := 0; r < id%3; r++ {
					a, b, c = b, c, a
				}
				ph := []job.Phase{{EndFrac: frac, StartMB: a / 2, EndMB: b / 2}, {EndFrac: 1, StartMB: b / 2, EndMB: c / 2}}
				cpu := time.Duration(cpuMs)*time.Millisecond/time.Duration(id+1) + time.Millisecond
				j := mkJob(t, id, cpu, ph, float64(id%2)*float64(admitAt%5))
				if !late || id < count-1 {
					admit(t, n, j, 0)
					continue
				}
				if _, err := n.referenceTick(q, q); err != nil {
					t.Fatal(err)
				}
				admit(t, n, j, q+q*time.Duration(admitAt%10)/10)
			}
			if late {
				return 2 * q
			}
			return q
		}
		ref, adv, now := twin(t, float64(capMB)+10, setup)
		for r := 0; r < 3 && ref.NumJobs() > 0; r++ {
			stretch(t, ref, adv, q, now, kq, "fuzz stretch")
			now += time.Duration(kq) * q
		}
	})
}

// TestCompletionFloorEarlyExitAtBoundary pins the near-done fast path: with
// a resident job within one quantum of completion at maximal progress the
// floor is exactly zero, and one tick of slack away it is exactly one.
func TestCompletionFloorEarlyExitAtBoundary(t *testing.T) {
	q := 10 * time.Millisecond
	// Single resident job at speed factor 1: exec == q, so maxCPU == q+1.
	maxCPU := time.Duration(q.Seconds()*float64(time.Second)) + 1
	cases := []struct {
		remaining time.Duration
		want      int64
	}{
		{maxCPU, 0},        // (maxCPU-1)/maxCPU == 0: could finish next tick
		{maxCPU - 1, 0},    // even closer
		{maxCPU + 1, 1},    // exactly one provably non-final tick
		{2*maxCPU + 1, 2},  // two
		{100 * maxCPU, 99}, // deep interior
	}
	for _, c := range cases {
		n := newNode(t, 1000, 4)
		if err := n.Admit(newJob(t, 1, c.remaining, 10), 0); err != nil {
			t.Fatal(err)
		}
		if got := n.CompletionFloor(q, 1<<30); got != c.want {
			t.Fatalf("CompletionFloor(remaining=%v) = %d, want %d", c.remaining, got, c.want)
		}
	}
	// Early exit must trigger regardless of position: a near-done job after
	// a long-running one still floors the node at zero.
	n := newNode(t, 1000, 4)
	if err := n.Admit(newJob(t, 1, time.Hour, 10), 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(newJob(t, 2, 3*time.Millisecond, 10), 0); err != nil {
		t.Fatal(err)
	}
	if got := n.CompletionFloor(q, 1<<30); got != 0 {
		t.Fatalf("CompletionFloor with near-done second job = %d, want 0", got)
	}
}
