package obs

import (
	"fmt"
	"io"
	"math/bits"
	"time"
)

// Histogram is a zero-allocation log-bucketed latency histogram:
// bucket b holds observations v with bits.Len64(v) == b, i.e. values
// in [2^(b-1), 2^b). Observe is allocation-free and O(1), so the hot
// path can record every scheduling cycle's wall time; quantiles are
// resolved to a bucket upper bound, which is exact enough for
// order-of-magnitude latency reporting (within 2x).
type Histogram struct {
	buckets [65]uint64 // index = bits.Len64(value), 0..64
	count   uint64
	sum     uint64
	max     int64
}

// Observe records one value (nanoseconds by convention). Negative
// values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
//
//simvet:testonly tests assert a run observed its cycles
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound of the q-quantile (0 <= q <= 1):
// the upper edge of the bucket where the cumulative count crosses
// q*count, clamped by the true maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(float64(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum >= rank {
			if b == 0 || b >= 63 {
				// Bucket 0 holds only zeros; buckets ≥ 63 would
				// overflow int64 — clamp both to the exact extreme.
				if b == 0 {
					return 0
				}
				return h.max
			}
			edge := int64(1)<<uint(b) - 1 // upper edge of bucket b
			if edge > h.max {
				edge = h.max
			}
			return edge
		}
	}
	return h.max
}

// String renders a one-line summary with durations.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50≤%v p90≤%v p99≤%v max=%v",
		h.count,
		time.Duration(h.Mean()).Round(time.Nanosecond),
		time.Duration(h.Quantile(0.50)),
		time.Duration(h.Quantile(0.90)),
		time.Duration(h.Quantile(0.99)),
		time.Duration(h.max))
}

// CycleHist aggregates the wall-time histograms of a replay: one per
// scheduling cycle (KindCycleEnd) and one per Schedule() call
// (KindPass). Emit is allocation-free, so it can ride along any
// probed run at negligible cost.
type CycleHist struct {
	Cycle Histogram // wall time per scheduling cycle
	Sched Histogram // wall time per policy Schedule() call
}

// Emit implements Probe.
func (h *CycleHist) Emit(ev Event) {
	switch ev.Kind {
	case KindCycleEnd:
		h.Cycle.Observe(ev.WallNanos)
	case KindPass:
		h.Sched.Observe(ev.WallNanos)
	}
}

// Report writes the two histogram summaries.
func (h *CycleHist) Report(w io.Writer) {
	fmt.Fprintf(w, "sched cycle wall:  %v\n", &h.Cycle)
	fmt.Fprintf(w, "Schedule() wall:   %v\n", &h.Sched)
}
