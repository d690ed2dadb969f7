// Package benchfmt holds the shared schema of BENCH_sched.json — the
// committed scale-benchmark reference numbers. The bench harness
// writes it and cmd/benchdiff compares against it; sharing the struct
// keeps the JSON tags from drifting apart (a mismatched tag would
// silently unmarshal to zero and disable the tolerance-gated checks).
package benchfmt

// ReplayEntry is one replay measurement. The wall-dependent fields
// (wall_seconds, us_per_cycle, heap/RSS, allocs/bytes per cycle) vary
// with the machine; the rest are deterministic replay outcomes, which
// cmd/benchdiff checks exactly. sim_steps is what the replay's
// decisions amount to in engine steps; sim_events is how many of them
// the engine executed rather than advanced by itself
// (workload.Result.Steps / Events) — deterministic too, but a property
// of the engine, not of the decisions.
type ReplayEntry struct {
	Policy         string  `json:"policy"`
	Jobs           int     `json:"jobs"`
	WallSeconds    float64 `json:"wall_seconds"`
	Cycles         int64   `json:"sched_cycles"`
	Steps          int64   `json:"sim_steps"`
	Events         int64   `json:"sim_events"`
	CycleMicros    float64 `json:"us_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`
	MeanWaitS      float64 `json:"mean_wait_s"`
	MakespanS      float64 `json:"makespan_s"`
	// Spilled counts cross-partition spillover re-routes — a
	// deterministic replay outcome of the spillover benchmark (zero
	// and omitted in the homogeneous sections).
	Spilled int `json:"spilled,omitempty"`
	// Requeues, NodeFailed and DownNodeS are the failure-domain
	// outcomes of the node-fault benchmark: jobs killed and requeued
	// by node outages, jobs that exhausted the requeue cap, and the
	// node-seconds of booked downtime. All three are deterministic
	// replay outcomes and diff exactly (zero and omitted in the
	// fault-free sections).
	Requeues   int     `json:"requeues,omitempty"`
	NodeFailed int     `json:"node_failed,omitempty"`
	DownNodeS  float64 `json:"down_node_s,omitempty"`
	// HeapMB is the heap in use right after the replay — the bounded-
	// memory evidence for the streaming path. PeakRSSMB is the
	// process-lifetime high-water mark: only meaningful when the
	// benchmark ran alone in the process (the regeneration recipe runs
	// SchedReplay1M standalone for exactly that reason).
	HeapMB    float64 `json:"heap_in_use_mb,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
}

// ObsEntry is one fully-instrumented replay measurement: the 100k
// replay with every observability consumer attached (decision trace,
// explainer, sampler, histograms). Jobs/cycles/steps/events/sample counts
// are deterministic — cmd/benchdiff checks them exactly against the
// plain replay, proving the probes are decision-preserving at scale.
// The wall-time fields and histogram quantiles are machine-dependent:
// wall_seconds and us_per_cycle fall under the -warn-pct soft gate,
// the quantiles are recorded for the human reader only.
type ObsEntry struct {
	Policy       string  `json:"policy"`
	Jobs         int     `json:"jobs"`
	WallSeconds  float64 `json:"wall_seconds"`
	Cycles       int64   `json:"sched_cycles"`
	Steps        int64   `json:"sim_steps"`
	Events       int64   `json:"sim_events"`
	CycleMicros  float64 `json:"us_per_cycle"`
	CycleSamples uint64  `json:"cycle_samples"`
	SchedSamples uint64  `json:"schedule_samples"`
	CycleP50Us   float64 `json:"cycle_p50_us"`
	CycleP99Us   float64 `json:"cycle_p99_us"`
	CycleMaxUs   float64 `json:"cycle_max_us"`
	SchedP50Us   float64 `json:"sched_p50_us"`
	SchedP99Us   float64 `json:"sched_p99_us"`
}

// ShmemOpEntry is one shmem-backend micro-measurement: a fixed count
// of complete DROM mask exchanges (administrator SetProcessMask plus
// the application's poll-and-apply) driven through one backend. Ops
// is deterministic; us_per_op is wall-clock and falls under the
// tolerance factor. The in-memory and file-backed entries sit side by
// side so the cost of the file transport (flock + decode + canonical
// re-encode per operation) is on record next to the in-process path
// it is NOT a replacement for.
type ShmemOpEntry struct {
	Backend     string  `json:"backend"`
	Ops         int     `json:"ops"`
	MicrosPerOp float64 `json:"us_per_op"`
}

// SchedDEntry is the what-if service measurement: a fixed batch of
// concurrent what-if queries answered by forking one live mid-replay
// session per query. The prediction aggregates (answered count, mean
// predicted start/wait) are deterministic — same trace, same fork
// point, same candidates — and cmd/benchdiff checks them exactly; a
// drift means forking stopped being decision-invisible. The latency
// fields are machine-dependent: p99_ms falls under the tolerance
// factor, mean_ms/wall_seconds under the -warn-pct soft gate.
type SchedDEntry struct {
	Policy      string  `json:"policy"`
	Jobs        int     `json:"jobs"`
	Queries     int     `json:"queries"`
	Concurrency int     `json:"concurrency"`
	Answered    int     `json:"answered"`
	ForkedAt    float64 `json:"forked_at"`
	MeanStartS  float64 `json:"mean_predicted_start_s"`
	MeanWaitS   float64 `json:"mean_predicted_wait_s"`
	WallSeconds float64 `json:"wall_seconds"`
	QPS         float64 `json:"queries_per_s"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// Doc is the top-level shape of BENCH_sched.json (sections are
// read-modify-written independently by the benchmarks).
type Doc struct {
	Replay100k *struct {
		Trace    string        `json:"trace"`
		Policies []ReplayEntry `json:"policies"`
	} `json:"sched_replay_100k"`
	Replay1M *struct {
		Trace  string      `json:"trace"`
		Replay ReplayEntry `json:"replay"`
	} `json:"sched_replay_1m"`
	// Spillover is the heterogeneous spillover sweep: one entry per
	// policy cell (single policies and per-partition policy sets), the
	// Policy field holding the cell's spec. Spilled joins the exactly-
	// compared deterministic outcomes.
	Spillover *struct {
		Trace    string        `json:"trace"`
		Policies []ReplayEntry `json:"policies"`
	} `json:"sched_spillover"`
	// NodeFaults is the failure-domain replay: the heterogeneous
	// trace with scripted node outages, a seeded MTBF/MTTR fault
	// stream and a low requeue cap. Requeues/NodeFailed/DownNodeS
	// join the exactly-compared deterministic outcomes.
	NodeFaults *struct {
		Trace    string        `json:"trace"`
		Policies []ReplayEntry `json:"policies"`
	} `json:"sched_nodefaults"`
	// Obs is the probes-enabled replay (see ObsEntry).
	Obs *struct {
		Trace  string   `json:"trace"`
		Probed ObsEntry `json:"probed"`
	} `json:"sched_obs"`
	// SchedD is the what-if service benchmark (see SchedDEntry).
	SchedD *struct {
		Trace  string      `json:"trace"`
		WhatIf SchedDEntry `json:"whatif"`
	} `json:"sched_schedd"`
	// Shmem is the backend-indirection pin: the 100k fcfs replay run
	// through the shmem.Backend interface (the in-memory backend every
	// simulation binary defaults to), cross-checked by cmd/benchdiff
	// against the plain sched_replay_100k entry of the same document —
	// same decisions, us_per_cycle and allocs within the plain replay's
	// gates — plus the per-backend DROM op micro-costs (ShmemOpEntry).
	Shmem *struct {
		Trace    string         `json:"trace"`
		Replay   ReplayEntry    `json:"replay"`
		Backends []ShmemOpEntry `json:"backends"`
	} `json:"sched_shmem"`
}
