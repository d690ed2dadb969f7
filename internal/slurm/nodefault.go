package slurm

// This file is the node failure-domain model: seeded MTBF/MTTR fault
// injection plus a deterministic down/drain script, resident-job kill
// with requeue-under-backoff, and the repair/drain-end transitions
// that return capacity to the scheduler.
//
// The model is strictly opt-in: a controller without InstallFaults (or
// with an empty FaultPlan) keeps ctl.nfState nil, every fault check
// short-circuits on that nil, no RNG is constructed and no engine
// event is scheduled — fault-free replays stay byte-identical to
// builds without this subsystem.
//
// Determinism: all fault events run on the single-threaded sim.Engine,
// and the plan's private seeded RNG is consumed only from engine
// events, so the draw order — and with it every failure, repair and
// backoff time — is a pure function of (plan, workload). The seeded
// MTBF chain re-arms itself only while the controller has work
// (queued, running, or backoff-limbo jobs); an armed event that fires
// idle disarms, and the next Submit re-arms, so Engine.Run always
// terminates.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fault-model defaults.
const (
	// DefaultMaxRequeues bounds how often node failures may requeue one
	// job before it is recorded OutcomeNodeFailed.
	DefaultMaxRequeues = 3
	// DefaultMTTR is the mean repair time applied when a FaultPlan
	// enables seeded failures without naming one (virtual seconds).
	DefaultMTTR = 600.0
	// DefaultRequeueBackoff is the base of the exponential requeue
	// backoff (virtual seconds); see requeueBackoff.
	DefaultRequeueBackoff = 30.0
)

// FaultPlan configures node fault injection for one controller.
type FaultPlan struct {
	// Script deterministically schedules outages:
	// "node0:down@100..400+node2:drain@200..300" takes node0 down at
	// t=100 (killing and requeueing its resident jobs) until t=400,
	// and drains node2 over [200,300) — no new launches there while
	// residents finish. Entries are separated by '+' or ';' (sweep
	// grid specs must use '+': the grid grammar owns ';').
	Script string
	// MTBF enables seeded random failures: each node draws exponential
	// times between failures with this mean (virtual seconds).
	// 0 disables the seeded model (a Script alone stays deterministic).
	MTBF float64
	// MTTR is the mean of the exponential repair times of seeded
	// failures (DefaultMTTR when 0).
	MTTR float64
	// MaxRequeues bounds the per-job requeue count after node
	// failures: 0 means DefaultMaxRequeues, negative disables
	// requeueing entirely (the first node failure is terminal).
	MaxRequeues int
	// Seed feeds the fault model's private RNG (failure and repair
	// times, backoff jitter).
	Seed int64
}

// Enabled reports whether the plan injects any faults.
func (fp FaultPlan) Enabled() bool { return fp.Script != "" || fp.MTBF > 0 }

// maxRequeues resolves the retry cap (0 → default, negative → none).
func (fp FaultPlan) maxRequeues() int {
	if fp.MaxRequeues == 0 {
		return DefaultMaxRequeues
	}
	if fp.MaxRequeues < 0 {
		return 0
	}
	return fp.MaxRequeues
}

// faultWindow is one parsed script entry.
type faultWindow struct {
	node  int
	drain bool
	from  float64
	to    float64
}

// parseFaultScript parses the deterministic outage script against the
// cluster's node names.
func parseFaultScript(ctl *Controller, script string) ([]faultWindow, error) {
	var out []faultWindow
	for _, entry := range strings.FieldsFunc(script, func(r rune) bool { return r == '+' || r == ';' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		colon := strings.IndexByte(entry, ':')
		at := strings.IndexByte(entry, '@')
		if colon < 0 || at < colon {
			return nil, fmt.Errorf("slurm: fault script entry %q: want node:kind@from..to", entry)
		}
		name, kind, span := entry[:colon], entry[colon+1:at], entry[at+1:]
		idx, ok := ctl.nodeIdx[name]
		if !ok {
			return nil, fmt.Errorf("slurm: fault script entry %q: unknown node %q", entry, name)
		}
		var drain bool
		switch kind {
		case "down":
		case "drain":
			drain = true
		default:
			return nil, fmt.Errorf("slurm: fault script entry %q: kind %q (want down or drain)", entry, kind)
		}
		dots := strings.Index(span, "..")
		if dots < 0 {
			return nil, fmt.Errorf("slurm: fault script entry %q: want from..to times", entry)
		}
		from, err := strconv.ParseFloat(span[:dots], 64)
		if err != nil {
			return nil, fmt.Errorf("slurm: fault script entry %q: bad start time: %v", entry, err)
		}
		to, err := strconv.ParseFloat(span[dots+2:], 64)
		if err != nil {
			return nil, fmt.Errorf("slurm: fault script entry %q: bad end time: %v", entry, err)
		}
		if from < 0 || to <= from || math.IsNaN(from) || math.IsInf(to, 0) {
			return nil, fmt.Errorf("slurm: fault script entry %q: want 0 <= from < to", entry)
		}
		out = append(out, faultWindow{node: idx, drain: drain, from: from, to: to})
	}
	return out, nil
}

// InstallFaults arms the node fault model. Call once, before the
// engine runs: script events are scheduled at their absolute virtual
// times. A plan that is not Enabled is a no-op and keeps the
// controller on the zero-cost fault-free path.
func (ctl *Controller) InstallFaults(fp FaultPlan) error {
	if !fp.Enabled() {
		return nil
	}
	if ctl.nfState != nil {
		return fmt.Errorf("slurm: InstallFaults called twice")
	}
	if fp.MTTR <= 0 {
		fp.MTTR = DefaultMTTR
	}
	wins, err := parseFaultScript(ctl, fp.Script)
	if err != nil {
		return err
	}
	n := len(ctl.cluster.Nodes)
	ctl.nfPlan = fp
	ctl.nfState = make([]hwmodel.NodeState, n)
	ctl.nfDownUntil = make([]float64, n)
	ctl.nfDrainUntil = make([]float64, n)
	ctl.nfDownStart = make([]float64, n)
	if fp.MTBF > 0 {
		ctl.nfRand = sim.NewRand(fp.Seed)
		ctl.nfArmed = make([]bool, n)
	}
	ctl.nfWins = wins
	if len(wins) > 0 {
		// Arm the windows from a t=0 event rather than here, so their IDs
		// are allocated during the run like those of every other regular
		// event they can tie with. Against submissions there is one rule
		// and it needs no help from IDs: the replay driver submits in the
		// engine's front band, so a submission runs before a same-instant
		// window whichever was scheduled first.
		ctl.trackAt(0, pendEv{kind: evFaultScript})
	}
	return nil
}

// scheduleFaultWindows arms the parsed script's down/drain window
// events; runs from the t=0 deferral event of InstallFaults
// (evFaultScript).
//
//simvet:coldpath once per run, gated on a fault script
func (ctl *Controller) scheduleFaultWindows() {
	for _, w := range ctl.nfWins {
		kind := evWinDown
		if w.drain {
			kind = evWinDrain
		}
		ctl.trackAt(w.from, pendEv{kind: kind, node: w.node, until: w.to})
	}
}

// faultIdle reports whether nothing is left for a seeded failure to
// disturb: no queued, running, or backoff-limbo job. Seeded events
// that fire idle disarm instead of re-arming (the next Submit
// re-arms), so the MTBF chain can never keep Engine.Run alive after
// the workload drains.
func (ctl *Controller) faultIdle() bool {
	return ctl.QueueLen() == 0 && ctl.RunningLen() == 0 && ctl.nfLimbo == 0
}

// expDraw draws an exponential variate with the given mean from the
// fault RNG.
func (ctl *Controller) expDraw(mean float64) float64 {
	return -mean * math.Log(1-ctl.nfRand.Float64())
}

// armSeededFaults arms one pending seeded failure per up node; called
// on every Submit while the seeded model is active. Nodes stay
// unarmed while the controller is idle.
//
//simvet:coldpath per submission, gated on the seeded fault model
func (ctl *Controller) armSeededFaults() {
	if ctl.nfRand == nil || ctl.faultIdle() {
		return
	}
	for i := range ctl.nfArmed {
		ctl.armSeededFault(i)
	}
}

// armSeededFault schedules the next seeded failure of node i (no-op
// when one is already pending or the node is not up).
func (ctl *Controller) armSeededFault(i int) {
	if ctl.nfArmed[i] || ctl.nfState[i] != hwmodel.NodeUp {
		return
	}
	ctl.nfArmed[i] = true
	ctl.trackAfter(ctl.expDraw(ctl.nfPlan.MTBF), pendEv{kind: evSeeded, node: i})
}

// seededFault is one armed MTBF failure firing. The repair time is
// drawn at failure time, in engine-event order.
func (ctl *Controller) seededFault(i int) {
	ctl.nfArmed[i] = false
	if ctl.faultIdle() || ctl.nfState[i] != hwmodel.NodeUp {
		// Drained workload, or a scripted outage got here first; a
		// later Submit / repair re-arms.
		return
	}
	now := ctl.cluster.Engine.Now()
	ctl.nodeDown(i, now+ctl.expDraw(ctl.nfPlan.MTTR))
}

// nodeDown fails node i until the given virtual time: resident jobs
// are killed and requeued (or recorded OutcomeNodeFailed past the
// retry cap), the node's CPUs leave the schedulable capacity through
// the effectiveFree overlay, and a repair event restores it. Failing
// an already-down node extends the outage; failing a draining node
// kills its residents like an up node (the pending drain-end then
// no-ops against the Down state).
//
//simvet:coldpath per fault event
func (ctl *Controller) nodeDown(i int, until float64) {
	if ctl.nfState[i] == hwmodel.NodeDown {
		if until > ctl.nfDownUntil[i] {
			ctl.nfDownUntil[i] = until
			ctl.trackAt(until, pendEv{kind: evRepair, node: i})
		}
		return
	}
	now := ctl.cluster.Engine.Now()
	ctl.nfState[i] = hwmodel.NodeDown
	ctl.nfDownUntil[i] = until
	ctl.nfDownStart[i] = now
	node := ctl.cluster.Nodes[i]
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindNodeDown, Time: now,
			Partition: ctl.cluster.Spec.Partitions[ctl.cluster.PartitionOfNode(i)].Name,
			Placement: node, Outcome: "down",
		})
	}
	ctl.killResidents(i)
	ctl.trackAt(until, pendEv{kind: evRepair, node: i})
	ctl.kick()
}

// nodeRepair returns node i to service. An extended outage leaves
// stale repair events behind; they no-op against the recorded
// horizon.
//
//simvet:coldpath per fault event
func (ctl *Controller) nodeRepair(i int) {
	now := ctl.cluster.Engine.Now()
	if ctl.nfState[i] != hwmodel.NodeDown || now < ctl.nfDownUntil[i] {
		return
	}
	ctl.nfState[i] = hwmodel.NodeUp
	// Masks may have churned while the overlay hid the node; the next
	// consumer re-scans from shared memory.
	ctl.nodeFreeOK[i] = false
	node := ctl.cluster.Nodes[i]
	part := ctl.cluster.Spec.Partitions[ctl.cluster.PartitionOfNode(i)].Name
	// Downtime is booked at repair; an outage still open when the
	// replay ends contributes nothing (virtual availability is only
	// meaningful over closed windows).
	ctl.Records.AddDownTime(part, now-ctl.nfDownStart[i])
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindNodeUp, Time: now,
			Partition: part, Placement: node, Outcome: "up",
		})
	}
	if ctl.nfRand != nil && !ctl.faultIdle() {
		ctl.armSeededFault(i)
	}
	ctl.kick()
}

// nodeDrain marks node i launch-ineligible until the given time;
// resident jobs run to completion. Draining an already-draining node
// extends the window; a down node stays down.
//
//simvet:coldpath per fault event
func (ctl *Controller) nodeDrain(i int, until float64) {
	if ctl.nfState[i] != hwmodel.NodeUp {
		if ctl.nfState[i] == hwmodel.NodeDraining && until > ctl.nfDrainUntil[i] {
			ctl.nfDrainUntil[i] = until
			ctl.trackAt(until, pendEv{kind: evDrainEnd, node: i})
		}
		return
	}
	now := ctl.cluster.Engine.Now()
	ctl.nfState[i] = hwmodel.NodeDraining
	ctl.nfDrainUntil[i] = until
	node := ctl.cluster.Nodes[i]
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindNodeDown, Time: now,
			Partition: ctl.cluster.Spec.Partitions[ctl.cluster.PartitionOfNode(i)].Name,
			Placement: node, Outcome: "drain",
		})
	}
	ctl.trackAt(until, pendEv{kind: evDrainEnd, node: i})
}

// drainEnd returns a drained node to service (no-op when a failure
// superseded the drain or the window was extended).
//
//simvet:coldpath per fault event
func (ctl *Controller) drainEnd(i int) {
	now := ctl.cluster.Engine.Now()
	if ctl.nfState[i] != hwmodel.NodeDraining || now < ctl.nfDrainUntil[i] {
		return
	}
	ctl.nfState[i] = hwmodel.NodeUp
	ctl.nodeFreeOK[i] = false
	node := ctl.cluster.Nodes[i]
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindNodeUp, Time: now,
			Partition: ctl.cluster.Spec.Partitions[ctl.cluster.PartitionOfNode(i)].Name,
			Placement: node, Outcome: "drain-end",
		})
	}
	if ctl.nfRand != nil && !ctl.faultIdle() {
		ctl.armSeededFault(i)
	}
	ctl.kick()
}

// killResidents stops every running job with tasks on the failed
// node, releases its DROM state on all its nodes, and requeues it
// under the bounded backoff policy — or records OutcomeNodeFailed
// once the retry cap is spent. The kill works through the same
// Stop + PostFinalize sequence as preemption and scancel, so it is
// safe at any point of the job lifecycle, including the
// launch-latency window before the ranks registered.
//
//simvet:coldpath per node-down event
func (ctl *Controller) killResidents(ni int) {
	node := ctl.cluster.Nodes[ni]
	// Collect first, in launch order from the node's partition view:
	// the requeue/record below edits that view.
	var victims []*runningJob
	for _, r := range ctl.views[ctl.cluster.partOf[ni]].rjobs {
		if r.hasNode(ni) {
			victims = append(victims, r)
		}
	}
	now := ctl.cluster.Engine.Now()
	for _, v := range victims {
		v.inst.Stop()
		ctl.finalizeTasks(v)
		ctl.removeRunning(v)
		// The progress since start is lost (no checkpoint on a node
		// failure); book it where the job ran.
		ctl.Records.AddLostWork(ctl.cluster.Spec.Partitions[v.pidx].Name, now-v.start)
		attempt := v.requeues + 1
		if attempt > ctl.nfPlan.maxRequeues() {
			ctl.recordEnd(v, now, metrics.OutcomeNodeFailed)
			continue
		}
		ctl.requeueAfterBackoff(v, node, attempt, now)
	}
}

// requeueAfterBackoff returns a failure victim to its home
// partition's queue after the attempt's backoff, under a fresh seq
// (the scheduler handle changes exactly as on preemption) while the
// original submit time is preserved — wait and slowdown keep
// spanning the whole lifecycle. The KindRequeue probe event carries
// the new seq at kill time; the queue re-entry emits a regular
// KindSubmit so queue-model consumers stay consistent.
//
//simvet:coldpath per node-down event
func (ctl *Controller) requeueAfterBackoff(v *runningJob, node string, attempt int, now float64) {
	ctl.seq++
	seq := ctl.seq
	ctl.Records.AddRequeue(ctl.cluster.Spec.Partitions[v.homePidx].Name)
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindRequeue, Time: now,
			Job: v.job.Name, Seq: seq, Priority: v.job.Priority,
			Partition: ctl.cluster.Spec.Partitions[v.pidx].Name,
			Placement: node, Target: attempt,
		})
	}
	ctl.nfLimbo++
	ctl.trackAfter(ctl.requeueBackoff(attempt), pendEv{kind: evRequeue, job: v.job, submit: v.submit, seq: seq, home: v.homePidx, attempt: attempt})
}

// requeueArrive is the deferred half of requeueAfterBackoff
// (evRequeue): the backoff elapsed and the job re-enters its home
// partition's queue under the fresh seq.
//
//simvet:coldpath per node-down event
func (ctl *Controller) requeueArrive(job *Job, submit float64, seq, home, attempt int) {
	ctl.nfLimbo--
	ctl.enqueue(&queuedJob{job: job, submit: submit, seq: seq, pidx: home, homePidx: home, requeues: attempt})
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindSubmit, Time: ctl.cluster.Engine.Now(),
			Job: job.Name, Seq: seq,
			Partition: ctl.cluster.Spec.Partitions[home].Name,
			Priority:  job.Priority, Nodes: job.Nodes, CPUs: job.CPUsPerNode(),
		})
	}
	ctl.kick()
}

// requeueBackoff returns attempt k's wait: base·2^(k-1), jittered
// ±50% when the seeded RNG is available (a scripted-only plan stays
// fully deterministic without it).
func (ctl *Controller) requeueBackoff(attempt int) float64 {
	d := DefaultRequeueBackoff * math.Pow(2, float64(attempt-1))
	if ctl.nfRand != nil {
		d *= 0.5 + ctl.nfRand.Float64()
	}
	return d
}
