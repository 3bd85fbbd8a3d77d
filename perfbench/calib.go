package main

import "time"

// On a shared host, such as a 2-vCPU virtual machine on a 2.1 GHz Xeon,
// neighbours can make the simulator run up to half again slower for
// minutes at a time while plain arithmetic loops do not slow at all. A calibration kernel that shares the simulator's habits — a
// binary heap of events, per-node job lists of pointers, a phase scan
// per job, branches on memory pressure, a map lookup by job ID — slows
// with it. A pass is cut into segments of about calSegment between
// cells; the kernel samples the host's slowdown at every cut, and each
// segment's host times are divided by the mean of the samples around it.
// The kernel allocates nothing and imports nothing from the simulator,
// so no change to the simulator moves it.

const (
	calNodes  = 32
	calSlots  = 4
	calPool   = calNodes * calSlots
	calSteps  = 60_000
	calPhases = 6
)

type calEvent struct {
	at   float64
	node int32
}

type calJob struct {
	id                 int
	demand, done, work float64
	phase              [calPhases]float64
}

type calNode struct {
	jobs [calSlots]*calJob
	n    int
	mem  float64
}

type calKernel struct {
	heap  []calEvent
	nodes [calNodes]calNode
	pool  [calPool]calJob
	free  []*calJob
	byID  map[int]*calJob
	rng   uint64
	sink  float64
}

func (k *calKernel) rand() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

func (k *calKernel) unit() float64 { return float64(k.rand()>>11) / (1 << 53) }

func (k *calKernel) push(e calEvent) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if k.heap[p].at <= k.heap[i].at {
			break
		}
		k.heap[p], k.heap[i] = k.heap[i], k.heap[p]
		i = p
	}
}

func (k *calKernel) pop() calEvent {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < last && k.heap[l].at < k.heap[m].at {
			m = l
		}
		if l+1 < last && k.heap[l+1].at < k.heap[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		k.heap[m], k.heap[i] = k.heap[i], k.heap[m]
		i = m
	}
	return top
}

func newCalKernel() *calKernel {
	return &calKernel{heap: make([]calEvent, 0, calNodes), byID: make(map[int]*calJob, 2*calPool)}
}

// run times one deterministic pass of the kernel.
func (k *calKernel) run() time.Duration {
	t0 := time.Now()
	k.rng = 88172645463325252
	k.heap = k.heap[:0]
	k.free = k.free[:0]
	for i := range k.pool {
		k.free = append(k.free, &k.pool[i])
	}
	clear(k.byID)
	for i := range k.nodes {
		k.nodes[i] = calNode{}
		k.push(calEvent{at: float64(i) * 0.01, node: int32(i)})
	}
	next := 0
	for step := 0; step < calSteps; step++ {
		e := k.pop()
		n := &k.nodes[e.node]
		if n.n < calSlots && k.rand()%8 == 0 {
			j := k.free[len(k.free)-1]
			k.free = k.free[:len(k.free)-1]
			j.id, j.demand, j.done, j.work = next, 20+k.unit()*180, 0, 5+k.unit()*50
			for p := range j.phase {
				j.phase[p] = k.unit()
			}
			next++
			k.byID[j.id] = j
			n.jobs[n.n] = j
			n.n++
		}
		n.mem = 0
		for _, j := range n.jobs[:n.n] {
			d := j.demand
			for _, p := range j.phase {
				if j.done/j.work < p {
					d *= 0.9 + 0.1*p
					break
				}
			}
			n.mem += d
		}
		share := 0.01 / float64(max(1, n.n))
		if n.mem > 384 {
			share *= 384 / n.mem
		}
		kept := 0
		for _, j := range n.jobs[:n.n] {
			j.done += share * 20
			if j.done >= j.work {
				delete(k.byID, j.id)
				k.free = append(k.free, j)
				k.sink += j.done
				continue
			}
			n.jobs[kept] = j
			kept++
		}
		n.n = kept
		if j, ok := k.byID[int(k.rand()%uint64(next+1))]; ok {
			k.sink += j.demand
		}
		k.push(calEvent{at: e.at + 0.01, node: e.node})
	}
	return time.Since(t0)
}

// calNominal is about the kernel's time on a 2.1 GHz Xeon vCPU.
// Calibrated host times read as host times on a machine where the kernel
// takes exactly calNominal.
const calNominal = 10 * time.Millisecond

// calRuns is how many kernel runs make one sample of the host's speed.
const calRuns = 5

// hostSlowdown runs the kernel calRuns times and returns the median time
// as a multiple of calNominal.
func (k *calKernel) hostSlowdown() float64 {
	v := make([]float64, calRuns)
	for i := range v {
		v[i] = float64(k.run()) / float64(calNominal)
	}
	return median(v)
}

// calSegment is the host time between samples: short enough to follow
// the host's slow and fast spells, which last seconds to minutes.
const calSegment = time.Second

// calibrator cuts one pass into segments and samples the host at every
// cut. A nil calibrator does nothing: traced passes are not calibrated.
type calibrator struct {
	k       *calKernel
	samples []float64       // samples[j] and samples[j+1] bracket segment j
	segs    []time.Duration // host time of each closed segment, samples excluded
	began   time.Time       // start of the open segment
}

// newCalibrator takes the first sample and opens the first segment.
func newCalibrator(k *calKernel) *calibrator {
	c := &calibrator{k: k, samples: []float64{k.hostSlowdown()}}
	c.began = time.Now()
	return c
}

// tick cuts the open segment if it has run calSegment. Call it between
// cells, outside every cell's timer.
func (c *calibrator) tick() {
	if c != nil && time.Since(c.began) >= calSegment {
		c.cut()
	}
}

// cut closes the open segment, samples the host and opens the next one.
// Call it once more after the pass's last cell.
func (c *calibrator) cut() {
	c.segs = append(c.segs, time.Since(c.began))
	c.samples = append(c.samples, c.k.hostSlowdown())
	c.began = time.Now()
}

// segment is the index of the open segment.
func (c *calibrator) segment() int {
	if c == nil {
		return 0
	}
	return len(c.segs)
}

// factor is segment j's slowdown.
func (c *calibrator) factor(j int) float64 { return (c.samples[j] + c.samples[j+1]) / 2 }

// wall sums the closed segments' host times, raw and calibrated.
func (c *calibrator) wall() (raw, calibrated float64) {
	for j, d := range c.segs {
		raw += d.Seconds()
		calibrated += d.Seconds() / c.factor(j)
	}
	return raw, calibrated
}
