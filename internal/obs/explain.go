package obs

import (
	"fmt"
	"strings"

	"repro/internal/cpuset"
)

// Explain reconstructs one job's lifecycle story from the probe
// stream: submission, queue-position evolution (it mirrors the
// controller's priority-descending / sequence-ascending queue order
// from submit/start/end events), the policy passes that considered
// the job and why they passed it over, spillover verdicts, final
// placement, the Figure-2 protocol steps that touch it — its own
// launch and termination, another job's DROM_PreInit stealing its CPUs
// and the DROM_PostFinalize returning them — and completion. Build one
// per replay, run the replay, then read Story.
type Explain struct {
	target string

	// Tracked-job state.
	found     bool
	started   bool
	done      bool
	seq       int
	partition string
	submit    float64
	start     float64

	// Queue model: every waiting job, in the controller's order.
	queue []queueEntry

	// Pass bookkeeping while the job waits.
	lastPos    int
	lastOf     int
	passes     int64
	passesFree int // free CPUs seen by the latest pass of the job's partition

	// Protocol model: the binding mask of each task of the job, and the
	// CPUs other jobs' tasks hold of them until their post_term.
	tasks  []explainTask
	thefts []explainTheft

	b strings.Builder
}

type explainTask struct {
	pid  int
	node string
	mask cpuset.CPUSet
}

type explainTheft struct {
	thief  int // PID holding the CPUs; 0 once returned
	victim int // index into tasks
	mask   cpuset.CPUSet
}

type queueEntry struct {
	seq       int
	priority  int
	partition string
}

// NewExplain explains the job named jobID (golden-trace jobs are
// named j00001, j00002, …).
func NewExplain(jobID string) *Explain {
	return &Explain{target: jobID, lastPos: -1}
}

// insert keeps the queue model in controller order: priority
// descending, sequence ascending.
func (e *Explain) insert(q queueEntry) {
	i := len(e.queue)
	for i > 0 {
		prev := e.queue[i-1]
		if prev.priority > q.priority || (prev.priority == q.priority && prev.seq < q.seq) {
			break
		}
		i--
	}
	e.queue = append(e.queue, queueEntry{})
	copy(e.queue[i+1:], e.queue[i:])
	e.queue[i] = q
}

// remove drops seq from the queue model (no-op when absent).
func (e *Explain) remove(seq int) {
	for i, q := range e.queue {
		if q.seq == seq {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// position returns the job's 1-based rank among waiting jobs of its
// partition, and that partition's backlog size (0, 0 when absent).
func (e *Explain) position() (pos, of int) {
	for _, q := range e.queue {
		if q.partition != e.partition {
			continue
		}
		of++
		if q.seq == e.seq {
			pos = of
		}
	}
	if pos == 0 {
		return 0, 0
	}
	return pos, of
}

func (e *Explain) printf(format string, args ...interface{}) {
	fmt.Fprintf(&e.b, format, args...)
}

// Emit implements Probe.
func (e *Explain) Emit(ev Event) {
	switch ev.Kind {
	case KindSubmit:
		e.insert(queueEntry{seq: ev.Seq, priority: ev.Priority, partition: ev.Partition})
		if !e.found && ev.Job == e.target {
			e.found = true
			e.seq = ev.Seq
			e.partition = ev.Partition
			e.submit = ev.Time
			e.printf("t=%9.1fs  submitted to partition %q: %d node(s) × %d CPU(s)/node, priority %d\n",
				ev.Time, ev.Partition, ev.Nodes, ev.CPUs, ev.Priority)
			pos, of := e.position()
			e.printf("t=%9.1fs  enters the queue at position %d of %d\n", ev.Time, pos, of)
			e.lastPos, e.lastOf = pos, of
		}

	case KindPass:
		if !e.found || e.started || e.done || ev.Partition != e.partition {
			return
		}
		e.passes++
		e.passesFree = ev.Free
		if pos, of := e.position(); pos != e.lastPos || of != e.lastOf {
			e.printf("t=%9.1fs  queue position %d of %d (partition has %d of %d CPUs free)\n",
				ev.Time, pos, of, ev.Free, ev.Cores)
			e.lastPos, e.lastOf = pos, of
		}

	case KindAction:
		// A preemption is matched by name: like KindRequeue, it carries
		// the NEW sequence the job re-enters the queue under.
		if !e.found || e.done || (ev.Seq != e.seq && !(ev.Act == ActPreempt && ev.Job == e.target)) {
			return
		}
		switch {
		case ev.Act == ActStart && ev.Reason == ReasonSkipped:
			e.printf("t=%9.1fs  policy admitted the job but placement failed (capacity raced away); stays queued\n", ev.Time)
		case ev.Act == ActSpill && ev.Reason == ReasonBlockedByReservation:
			e.printf("t=%9.1fs  spillover to %q blocked: starting there could delay its head reservation (shadow t=%.1fs)\n",
				ev.Time, ev.Partition, ev.Shadow)
		case ev.Act == ActPreempt:
			// The job was checkpointed and requeued under a new sequence.
			e.remove(e.seq)
			e.seq = ev.Seq
			e.started = false
			e.insert(queueEntry{seq: ev.Seq, priority: ev.Priority, partition: e.partition})
			e.printf("t=%9.1fs  preempted (checkpointed) and requeued\n", ev.Time)
		case ev.Act == ActShrink && ev.Reason == ReasonStarted:
			e.printf("t=%9.1fs  shrunk to %d CPU(s)/node\n", ev.Time, ev.Target)
		case ev.Act == ActExpand && ev.Reason == ReasonStarted:
			e.printf("t=%9.1fs  expanded to %d CPU(s)/node\n", ev.Time, ev.Target)
		}

	case KindRequeue:
		if !e.found || ev.Job != e.target || e.done {
			return
		}
		// Killed by a node fault; the job re-enters the queue (after a
		// backoff) under a new sequence, like a preemption.
		e.remove(e.seq)
		e.seq = ev.Seq
		e.started = false
		e.printf("t=%9.1fs  node %s failed; job killed and requeued (attempt %d)\n",
			ev.Time, ev.Placement, ev.Target)

	case KindProtocol:
		if e.started && !e.done {
			e.protocol(ev)
		}

	case KindJobStart:
		e.remove(ev.Seq)
		if !e.found || ev.Seq != e.seq || e.started {
			return
		}
		e.started = true
		e.tasks, e.thefts = e.tasks[:0], e.thefts[:0] // a relaunch gets fresh PIDs
		if ev.Origin != "" {
			e.printf("t=%9.1fs  re-routed by spillover: home partition %q had no room, %q can host it now\n",
				ev.Time, ev.Origin, ev.Partition)
		}
		e.start = ev.Time
		wait := ev.Time - e.submit
		e.printf("t=%9.1fs  started on %s with %d CPU(s)/node after waiting %.1fs (considered by %d policy pass(es))\n",
			ev.Time, ev.Placement, ev.CPUs, wait, e.passes)

	case KindJobEnd:
		e.remove(ev.Seq)
		if !e.found || ev.Job != e.target || e.done {
			return
		}
		e.done = true
		if !e.started {
			e.printf("t=%9.1fs  %s while still queued, after waiting %.1fs\n",
				ev.Time, ev.Outcome, ev.Time-e.submit)
			return
		}
		e.printf("t=%9.1fs  %s after running %.1fs (response time %.1fs)\n",
			ev.Time, ev.Outcome, ev.Time-e.start, ev.Time-e.submit)
	}
}

// protocol narrates one protocol step of the running job. The events
// name the acting task only; who it stole from is inferred from the
// masks: a DROM_PreInit of another job that overlaps one of the job's
// tasks on the same node shrinks that task by the overlap.
func (e *Explain) protocol(ev Event) {
	own := ev.Job == e.target
	switch ev.Step {
	case StepLaunchRequest:
		if own {
			e.printf("t=%9.1fs  %s launch_request: %d new task(s), %d victim shrink(s) planned\n",
				ev.Time, ev.Placement, ev.Target, ev.Running)
		}
	case StepPreLaunch:
		if own {
			e.tasks = append(e.tasks, explainTask{pid: ev.PID, node: ev.Placement, mask: ev.Mask})
			e.printf("t=%9.1fs  %s pre_launch: DROM_PreInit(pid=%d, mask=%s, STEAL) reserves %d CPU(s)\n",
				ev.Time, ev.Placement, ev.PID, ev.Mask, ev.Mask.Count())
			return
		}
		for i := range e.tasks {
			t := &e.tasks[i]
			taken := t.mask.And(ev.Mask)
			if t.node != ev.Placement || taken.IsEmpty() {
				continue
			}
			t.mask = t.mask.AndNot(taken)
			e.thefts = append(e.thefts, explainTheft{thief: ev.PID, victim: i, mask: taken})
			e.printf("t=%9.1fs  %s: job %s's DROM_PreInit(pid=%d, mask=%s, STEAL) takes %d CPU(s) from pid %d, leaving it %d at its next DLB_PollDROM\n",
				ev.Time, ev.Placement, ev.Job, ev.PID, ev.Mask, taken.Count(), t.pid, t.mask.Count())
		}
	case StepPostTerm:
		if own {
			e.printf("t=%9.1fs  %s post_term: DROM_PostFinalize(pid=%d, RETURN_STOLEN)\n", ev.Time, ev.Placement, ev.PID)
			return
		}
		for i := range e.thefts {
			th := &e.thefts[i]
			if th.thief != ev.PID {
				continue
			}
			th.thief = 0
			t := &e.tasks[th.victim]
			t.mask = t.mask.Or(th.mask)
			e.printf("t=%9.1fs  %s: job %s's DROM_PostFinalize(pid=%d, RETURN_STOLEN) returns %d CPU(s) to pid %d, now %d\n",
				ev.Time, ev.Placement, ev.Job, ev.PID, th.mask.Count(), t.pid, t.mask.Count())
		}
	case StepReleaseResources, StepSchedShrink, StepSchedExpand, StepEvolvingGrant:
		// A mask staged for one of the job's tasks; shrink/expand actions
		// and grants are narrated where they are decided.
		for i := range e.tasks {
			if t := &e.tasks[i]; t.pid == ev.PID {
				t.mask = ev.Mask
				if ev.Step == StepReleaseResources {
					e.printf("t=%9.1fs  %s release_resources: DROM_SetProcessMask(pid=%d, mask=%s) expands it to %d CPU(s)\n",
						ev.Time, ev.Placement, ev.PID, ev.Mask, ev.Mask.Count())
				}
			}
		}
	}
}

// Story returns the reconstructed lifecycle, or a one-line diagnosis
// when the job never appeared in the stream.
func (e *Explain) Story() string {
	if !e.found {
		return fmt.Sprintf("job %q: never submitted in this replay (check the job name)\n", e.target)
	}
	s := fmt.Sprintf("job %s:\n%s", e.target, e.b.String())
	if !e.done {
		if e.started {
			s += "(still running when the replay ended)\n"
		} else {
			s += fmt.Sprintf("(still queued when the replay ended; last seen at position %d of %d with %d CPUs free)\n",
				e.lastPos, e.lastOf, e.passesFree)
		}
	}
	return s
}
