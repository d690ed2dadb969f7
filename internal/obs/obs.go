// Package obs is the scheduler observability bus: a flat event type
// emitted from a handful of probe points (controller scheduling
// cycles, policy passes, action outcomes, spillover verdicts, job
// lifecycle transitions, the Figure-2 DROM protocol steps, engine
// progress, sweep cell completion) and a set of consumers that
// reconstruct user-facing views from the stream — a JSONL decision
// trace, a per-job lifecycle explainer, the protocol log, a
// virtual-time sampler and zero-alloc latency histograms.
//
// Instrumented code holds a Probe interface value and emits only when
// it is non-nil, so the disabled path pays a single nil check per
// probe point and allocates nothing. Events are passed by value; a
// consumer must copy what it wants to retain.
package obs

import "repro/internal/cpuset"

// Kind discriminates Event payloads.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	// KindSubmit: a job entered the controller queue. Job, Seq,
	// Partition, Priority, Nodes, CPUs.
	KindSubmit Kind = iota + 1
	// KindCycleStart opens one scheduling cycle (all partition passes
	// coalesced at one timestamp). Queue/Running are controller-wide;
	// Processed/Skipped are the engine's step counts.
	KindCycleStart
	// KindPass: one policy pass over one partition, emitted after
	// Schedule returned and before its actions execute. Queue, Running,
	// Free and Cores describe the partition snapshot the policy saw;
	// WallNanos is the Schedule call's wall time.
	KindPass
	// KindAction: one executed (or rejected) scheduler action. Act
	// says what was attempted, Reason how it ended.
	KindAction
	// KindCycleEnd closes the cycle; WallNanos is the whole cycle's
	// wall time (snapshots, policy passes, action execution, spill).
	KindCycleEnd
	// KindJobStart: a job launched. Partition is where it runs, Origin
	// its home partition when a spill re-routed it, Placement the
	// comma-joined node names.
	KindJobStart
	// KindJobEnd: a job left the system. Outcome is the
	// metrics.Outcome string (completed/cancelled/failed/timeout); a
	// job cancelled while still queued has never started.
	KindJobEnd
	// KindEngine is the simulation engine's progress heartbeat:
	// Processed and Skipped so far, every engineProbeEvery steps.
	KindEngine
	// KindCell: one sweep grid cell finished. Cell/Cells are
	// done-so-far and total.
	KindCell
	// KindNodeDown: a node left service (fault injection). Placement is
	// the node name, Partition its partition, Outcome "down" for a hard
	// failure or "drain" for a drain window.
	KindNodeDown
	// KindNodeUp: a node returned to service. Placement/Partition as in
	// KindNodeDown; Outcome "up" after a repair, "drain-end" when a
	// drain window closed.
	KindNodeUp
	// KindRequeue: a running job was killed by a node fault and
	// requeued. Job is the job, Seq the NEW sequence it will re-enter
	// the queue under, Target the requeue attempt number (1-based),
	// Placement the failed node.
	KindRequeue
	// KindFork: a simulation lineage was forked at Time (snapshot /
	// what-if service). Queue/Running are the counts carried into the
	// fork; Job names the what-if candidate when one drove the fork.
	KindFork
	// KindSnapshot: one partition's state at the end of a builtin-planner
	// cycle — Queue, Running, Free and Cores as in KindPass. The builtin
	// planner makes no Schedule() call, so it emits no KindPass; this is
	// what the sampler reads in its place.
	KindSnapshot
	// KindProtocol: one step of the Figure-2 launch/termination protocol
	// between the controller and a node's slurmd/slurmstepd. Step says
	// which, Placement is the node; the Step constants list the operands.
	KindProtocol
)

var kindNames = [...]string{
	KindSubmit:     "submit",
	KindCycleStart: "cycle-start",
	KindPass:       "pass",
	KindAction:     "action",
	KindCycleEnd:   "cycle-end",
	KindJobStart:   "job-start",
	KindJobEnd:     "job-end",
	KindEngine:     "engine",
	KindCell:       "cell",
	KindNodeDown:   "node-down",
	KindNodeUp:     "node-up",
	KindRequeue:    "requeue",
	KindFork:       "fork",
	KindSnapshot:   "snapshot",
	KindProtocol:   "protocol",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Act is the attempted operation of a KindAction event.
type Act uint8

// Action verbs.
const (
	ActNone Act = iota
	ActStart
	ActShrink
	ActExpand
	ActSpill
	ActPreempt
)

var actNames = [...]string{
	ActNone:    "none",
	ActStart:   "start",
	ActShrink:  "shrink",
	ActExpand:  "expand",
	ActSpill:   "spill",
	ActPreempt: "preempt",
}

func (a Act) String() string {
	if int(a) < len(actNames) {
		return actNames[a]
	}
	return "unknown"
}

// Reason is the outcome of a KindAction event.
type Reason uint8

// Action outcomes.
const (
	ReasonNone Reason = iota
	// ReasonStarted: the action executed (a start launched, a resize
	// staged, a spill committed).
	ReasonStarted
	// ReasonBlockedByReservation: the spillover guard rejected the
	// placement because it could delay the host partition's EASY head
	// reservation (Shadow carries the reservation's shadow time).
	ReasonBlockedByReservation
	// ReasonSpilled: a spill committed; the job starts in Partition
	// instead of its home Origin.
	ReasonSpilled
	// ReasonSkipped: the executor rejected a policy action (the
	// capacity raced away, or the action named an unknown/foreign
	// job); the job stays queued.
	ReasonSkipped
)

var reasonNames = [...]string{
	ReasonNone:                 "none",
	ReasonStarted:              "started",
	ReasonBlockedByReservation: "blocked-by-reservation",
	ReasonSpilled:              "spilled",
	ReasonSkipped:              "skipped",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// Step is the protocol step of a KindProtocol event: one DROM call on
// task PID of Job (when the caller knows it) with Mask.
type Step uint8

// Protocol steps. The first four are Figure 2 of the paper.
const (
	StepNone Step = iota
	// StepLaunchRequest: slurmd planned Job's launch on the node —
	// Target new tasks, Running victim tasks to shrink. No PID or Mask.
	StepLaunchRequest
	// StepPreLaunch: DROM_PreInit reserved Mask for the new task with
	// the steal flag; victims apply their shrink at their next poll.
	StepPreLaunch
	// StepPostTerm: DROM_PostFinalize removed the task and returned the
	// CPUs it had stolen to owners still running. No Mask.
	StepPostTerm
	// StepReleaseResources: DROM_SetProcessMask expanded the task to
	// Mask over CPUs a finished job left free.
	StepReleaseResources
	// StepPreLaunchRetry: the reservation hit a registry fault and is
	// made again.
	StepPreLaunchRetry
	// StepSchedShrink / StepSchedExpand: a sched.Policy action staged
	// Mask for the task.
	StepSchedShrink
	StepSchedExpand
)

var stepNames = [...]string{
	StepNone:             "none",
	StepLaunchRequest:    "launch_request",
	StepPreLaunch:        "pre_launch",
	StepPostTerm:         "post_term",
	StepReleaseResources: "release_resources",
	StepPreLaunchRetry:   "pre_launch_retry",
	StepSchedShrink:      "sched_shrink",
	StepSchedExpand:      "sched_expand",
}

func (s Step) String() string {
	if int(s) < len(stepNames) {
		return stepNames[s]
	}
	return "unknown"
}

// Event is one probe emission. It is a flat value: which fields are
// meaningful depends on Kind (see the Kind constants). Probe points
// fill only what they know; everything else is the zero value.
type Event struct {
	Kind   Kind
	Act    Act
	Reason Reason
	Step   Step

	// Time is the virtual time in seconds.
	Time float64

	// Job identity: name and submission sequence (the scheduler's
	// stable handle; a preempted job requeues under a new Seq).
	Job string
	Seq int

	// Partition names where the event happened; Origin is the home
	// partition when it differs (spills).
	Partition string
	Origin    string

	// Request/placement shape.
	Priority  int
	Nodes     int
	CPUs      int
	Target    int
	Placement string

	// PID and Mask are the task and the CPU mask a protocol step
	// operates on.
	PID  int
	Mask cpuset.CPUSet

	// Snapshot counters (pass/cycle/snapshot events).
	Queue   int
	Running int
	Free    int
	Cores   int

	// Shadow is the head reservation's shadow time on
	// blocked-by-reservation verdicts.
	Shadow float64

	// Outcome is the job's recorded outcome on KindJobEnd.
	Outcome string

	// WallNanos is real wall-clock time (cycle and Schedule timing).
	WallNanos int64

	// Processed is the engine's executed-event count, Skipped the
	// steady iterations it advanced without executing; their sum, the
	// step count, is a function of the run's decisions alone.
	//
	//simvet:testonly the fuzz twins compare the step count and the heartbeat test its cadence
	Processed int64
	//simvet:testonly the fuzz twins compare the step count and the heartbeat test its cadence
	Skipped int64

	// Cell/Cells is sweep progress (cells done / total).
	Cell  int
	Cells int
}

// Probe receives events from instrumented code. Emit is called from
// the simulation goroutine (or, for KindCell, under the sweep's
// emission lock): implementations need no internal locking unless
// they are shared across independently running probes.
type Probe interface {
	Emit(ev Event)
}

// Func adapts a function to the Probe interface.
type Func func(Event)

// Emit implements Probe.
func (f Func) Emit(ev Event) { f(ev) }

type multi []Probe

//simvet:guarded Multi drops nil consumers at construction
func (m multi) Emit(ev Event) {
	for _, p := range m {
		p.Emit(ev)
	}
}

// Multi fans one probe stream out to several consumers. Nil entries
// are dropped; Multi() of nothing (or of only nils) returns nil, so
// callers can compose optional consumers and hand the result straight
// to the instrumented code.
func Multi(ps ...Probe) Probe {
	out := make(multi, 0, len(ps))
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
