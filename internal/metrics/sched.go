package metrics

import "fmt"

// BoundedSlowdownThreshold caps the denominator of the bounded
// slowdown so sub-threshold jobs cannot explode the metric (the
// standard 10 s from the batch-scheduling literature).
const BoundedSlowdownThreshold = 10.0

// SchedStats are the scheduler-quality metrics of one workload run:
// the quantities batch-scheduling papers compare policies on.
type SchedStats struct {
	Jobs         int
	Makespan     float64 // last end − first submit
	MeanWait     float64
	P95Wait      float64
	MeanResponse float64
	P95Response  float64
	MeanSlowdown float64 // bounded slowdown, threshold 10 s
	MaxSlowdown  float64
	// Demand is Σ(requested width × actual runtime) over the cluster's
	// capacity — an upper bound on utilization, NOT utilization: a job
	// shrunk below its request runs elongated but is still weighted at
	// full width, so malleable policies can push this past what the
	// CPUs really did. Exact utilization needs the per-thread traces.
	// 0 when no width information is supplied.
	Demand float64
	// Failed / Cancelled count jobs that ended with those outcomes
	// (fault-aware replays; zero on clean workloads).
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
	// Spilled counts jobs re-routed to another partition by the
	// cross-partition spillover pass (zero unless it is enabled).
	Spilled int `json:"spilled,omitempty"`
	// Failure-domain tallies (zero unless node faults are enabled):
	// jobs that exhausted their requeue budget, fault-driven requeue
	// events, virtual seconds of progress destroyed by node kills, and
	// node-seconds of downtime booked by completed repairs.
	NodeFailed int     `json:"node_failed,omitempty"`
	Requeues   int     `json:"requeues,omitempty"`
	LostWorkS  float64 `json:"lost_work_s,omitempty"`
	DownNodeS  float64 `json:"down_node_s,omitempty"`
}

// NewSchedStats computes the stats from a finished workload. cpusOf
// maps a job name to its requested CPU width for the demand estimate;
// pass nil (or totalCores <= 0) to skip it. The mean/max statistics
// come from the workload's running sums; the percentile fields and
// Demand need the retained records, so they stay zero for an
// aggregated workload (streaming replay). Cancelled-while-queued
// records are excluded from the wait/response/slowdown statistics
// (see JobRecord.NeverRan) while still counting toward Jobs and
// Cancelled.
func NewSchedStats(w Workload, cpusOf func(name string) int, totalCores int) SchedStats {
	st := SchedStats{
		Jobs: w.n, Failed: w.nFailed, Cancelled: w.nCancelled, Spilled: w.nSpilled,
		NodeFailed: w.nNodeFailed, Requeues: w.nRequeues,
		LostWorkS: w.lostWorkS, DownNodeS: w.downS,
		Makespan: w.TotalRunTime(),
	}
	if w.statsN > 0 {
		n := float64(w.statsN)
		st.MeanWait = w.sumWait / n
		st.MeanResponse = w.sumResp / n
		st.MeanSlowdown = w.sumSlow / n
		st.MaxSlowdown = w.maxSlow
	}
	var waits, resps Summary
	for j := range w.All() {
		if j.NeverRan() {
			continue
		}
		waits.Observe(j.WaitTime())
		resps.Observe(j.ResponseTime())
	}
	st.P95Wait = waits.Percentile(95)
	st.P95Response = resps.Percentile(95)
	if cpusOf != nil && totalCores > 0 {
		st.Demand = w.Utilization(cpusOf, totalCores)
	}
	return st
}

func (s SchedStats) String() string {
	out := fmt.Sprintf(
		"jobs=%d makespan=%.0fs mean_wait=%.1fs p95_wait=%.1fs mean_resp=%.1fs p95_resp=%.1fs mean_bsld=%.2f max_bsld=%.2f demand=%.1f%%",
		s.Jobs, s.Makespan, s.MeanWait, s.P95Wait, s.MeanResponse, s.P95Response,
		s.MeanSlowdown, s.MaxSlowdown, 100*s.Demand)
	if s.Failed > 0 || s.Cancelled > 0 {
		out += fmt.Sprintf(" failed=%d cancelled=%d", s.Failed, s.Cancelled)
	}
	if s.Spilled > 0 {
		out += fmt.Sprintf(" spilled=%d", s.Spilled)
	}
	if s.Requeues > 0 || s.NodeFailed > 0 || s.DownNodeS > 0 {
		out += fmt.Sprintf(" requeued=%d node_failed=%d lost_work=%.0fs down_node=%.0fs",
			s.Requeues, s.NodeFailed, s.LostWorkS, s.DownNodeS)
	}
	return out
}
