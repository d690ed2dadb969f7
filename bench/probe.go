package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/obs"
)

// cycleProbe is the benchmark's own obs.Probe: installed on
// Scenario.Probe in traced runs, it turns the controller's cycle and
// pass events into spans (a cycle span with one child span per
// Schedule() call), samples the queue depth at every cycle start,
// counts executed actions, and digests the job starts in the order
// the simulation made them. It only observes; a probe can never
// change a decision.
type cycleProbe struct {
	tc *traceCtx // cycles hang under its current span; nil records no spans

	cycleID   int
	cycleNs   []float64 // wall time per cycle (KindCycleEnd.WallNanos)
	passNs    []float64 // wall time per Schedule() call (KindPass.WallNanos)
	queue     []float64 // controller queue depth at cycle start
	jobStarts int64
	starts    int64
	shrinks   int64
	expands   int64
	spilled   int64
	requeues  int64
	digest    hash.Hash
}

func newCycleProbe(tc *traceCtx) *cycleProbe {
	return &cycleProbe{tc: tc, digest: sha256.New()}
}

// reset forgets everything seen so far, keeping the span wiring; the
// harness calls it before each traced trial.
func (p *cycleProbe) reset() {
	*p = *newCycleProbe(p.tc)
}

// Emit implements obs.Probe.
func (p *cycleProbe) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindCycleStart:
		p.queue = append(p.queue, float64(ev.Queue))
		p.cycleID = p.tc.begin("cycle", "slurm")
	case obs.KindPass:
		p.passNs = append(p.passNs, float64(ev.WallNanos))
		if p.tc != nil {
			now := p.tc.tr.now()
			p.tc.tr.add(p.cycleID, "schedule", "sched", now-ev.WallNanos, now)
		}
	case obs.KindCycleEnd:
		p.cycleNs = append(p.cycleNs, float64(ev.WallNanos))
		p.tc.end(p.cycleID)
	case obs.KindAction:
		switch {
		case ev.Reason == obs.ReasonSpilled:
			p.spilled++
		case ev.Reason != obs.ReasonStarted:
		case ev.Act == obs.ActStart:
			p.starts++
		case ev.Act == obs.ActShrink:
			p.shrinks++
		case ev.Act == obs.ActExpand:
			p.expands++
		}
	case obs.KindRequeue:
		p.requeues++
	case obs.KindJobStart:
		p.jobStarts++
		fmt.Fprintf(p.digest, "%s %s %.3f\n", ev.Job, ev.Partition, ev.Time)
	}
}

// startsDigest is the digest of every job start seen so far: job,
// partition and start time rounded to 1 ms, in simulation order.
func (p *cycleProbe) startsDigest() string {
	return hex.EncodeToString(p.digest.Sum(nil))[:16]
}

// sum adds up a sample slice.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
