package workload

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/slurm"
)

// kit is what opening a replay builds before its first submission: the
// engine, the cluster, the controller and the session driving them.
// Opening one resets every part in place (sim.Engine.Reset,
// slurm.Cluster.Reset, slurm.Controller.Reset, Session.reset): each
// comes back as new, keeping only emptied capacity, so a replay on a
// kit that ran before decides, counts and records exactly what it
// would on a zero kit.
//
// A kit is owned by one replay at a time. The one-shot replay (replay)
// takes one from a pool and puts it back once the result has taken
// the records, unless the run ended with an error or its shared memory
// lives in files (ShmemDir). A session that escapes to its caller
// (Spec.Open, NewSchedSession) has a kit of its own, which never goes
// back, and neither do its forks.
type kit struct {
	eng     sim.Engine
	cluster slurm.Cluster
	ctl     slurm.Controller
	sess    Session
}

// kits holds the kits of clean one-shot replays. A pooled kit may
// still point at what its last replay handed out — the records, the
// tracer — and at what it was handed — the scenario, the source, a
// policy, a probe — but writes to none of it again: its next open
// resets every part, dropping them. Nor does what it handed out reach
// back into it: every job of a drained replay has ended, settling its
// span, so reading the tracer calls into no instance the kit recycles.
var kits sync.Pool

// replay is the one-shot form behind every Run* entry point and the
// paper's runs (RunPaper): open on a pooled kit (a zero one for
// file-backed shared memory, which never goes back), drain, and pool
// the kit again if the run was clean.
func replay(s Scenario, src SubmissionSource, policy slurm.Policy, install func(*slurm.Controller) error) Result {
	var k *kit
	if s.ShmemDir == "" {
		k, _ = kits.Get().(*kit)
	}
	if k == nil {
		k = new(kit)
	}
	res := k.replay(s, src, policy, install)
	if res.Err == nil && s.ShmemDir == "" {
		kits.Put(k)
	}
	return res
}

// replay opens s on k and drains it. Both release the source (see
// open). The result takes the controller's records as they are: the
// kit's next reset drops them, and nothing appends to them before.
func (k *kit) replay(s Scenario, src SubmissionSource, policy slurm.Policy, install func(*slurm.Controller) error) Result {
	sess, err := open(k, s, src, policy, install)
	if err != nil {
		return Result{Policy: policy, Err: err}
	}
	sess.eng.Run()
	closeSource(src)
	return sess.result(sess.ctl.Records)
}
