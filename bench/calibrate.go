package main

import (
	"math"
	"runtime"
	"time"
)

// The sandbox this benchmark runs in drifts: the same work takes
// ±20 % longer or shorter from one minute to the next, for minutes at
// a time, which is more than any bound worth setting. So every timed
// region is bracketed by a calibration kernel — a fixed amount of
// harness-only work shaped like the simulator's inner loop (pop the
// earliest of a few events from a binary heap, some float math, push
// it back) — and host time is scaled by how long the kernel took
// against calibrationRefNs. The scaled unit is the reference second:
// one second of a machine on which the kernel takes exactly
// calibrationRefNs. The kernel calls nothing outside this file, so no
// change to the repository can move it, and it holds no pointers and
// allocates nothing, so the state of the garbage collector cannot
// either.

// calibrationRefNs is the kernel's time on the machine the benchmark
// was sized on, when that machine is left alone.
const calibrationRefNs = 2.0e6

// calibrationOps sizes the kernel (events executed per call).
const calibrationOps = 60000

// calEvent is the kernel's heap entry.
type calEvent struct {
	t    float64
	id   int64
	kind int64
}

// calibrateOnce runs the kernel and returns its wall time in
// nanoseconds.
func calibrateOnce() float64 {
	t0 := time.Now()
	var heap [16]calEvent
	var table [64]float64
	for i := range table {
		table[i] = float64(i)
	}
	for k := range heap {
		heap[k] = calEvent{t: float64(k), id: int64(k), kind: int64(k)}
	}
	n := len(heap)
	var id int64
	for i := 0; i < calibrationOps; i++ {
		// Execute the root: advance it by a computed delay, then sift it
		// down to its place (pop and push in one).
		e := heap[0]
		x := table[id&63]
		e.t += 1 + math.Sqrt(x+float64(e.kind))*0.01 + math.Exp(-x*0.001)
		id++
		e.id = id
		j := 0
		for {
			l, r := 2*j+1, 2*j+2
			if l >= n {
				break
			}
			s := l
			if r < n && heap[r].t < heap[l].t {
				s = r
			}
			if heap[s].t >= e.t {
				break
			}
			heap[j] = heap[s]
			j = s
		}
		heap[j] = e
	}
	sink += heap[0].t
	return float64(time.Since(t0).Nanoseconds())
}

// calibrate takes one calibration point: it lets the garbage collector
// finish first (a concurrent mark phase on the sibling CPU would slow
// the kernel without having slowed the trials any more than it always
// does), then runs the kernel three times and returns the times.
func calibrate() []float64 {
	runtime.GC()
	return []float64{calibrateOnce(), calibrateOnce(), calibrateOnce()}
}

// slowdown is how much slower than the reference the machine ran
// during a run, from all the kernel times taken in it: host time ÷
// slowdown is reference time.
func slowdown(kernel []float64) float64 {
	return median(kernel) / calibrationRefNs
}
