package obs

import (
	"fmt"
	"strings"
)

// Explain reconstructs one job's lifecycle story from the probe
// stream: submission, queue-position evolution (it mirrors the
// controller's priority-descending / sequence-ascending queue order
// from submit/start/end events), the policy passes that considered
// the job and why they passed it over, spillover verdicts, final
// placement and completion. Build one per replay, run the replay,
// then read Story.
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

	b strings.Builder
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

	case KindJobStart:
		e.remove(ev.Seq)
		if !e.found || ev.Seq != e.seq || e.started {
			return
		}
		e.started = true
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
