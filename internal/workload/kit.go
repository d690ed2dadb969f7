package workload

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/slurm"
)

// kit is what opening a replay builds before its first submission: the
// engine, the cluster, the controller and the session driving them,
// the slice source a materialized replay reads, and the jitter stream.
// Opening one resets every part in place (sim.Engine.Reset,
// slurm.Cluster.Reset, slurm.Controller.Reset, Session.reset,
// sliceSource.reset): each comes back as new, keeping only emptied
// capacity — the job slab and the source's order among it — so a
// replay on a kit that ran before decides, counts and records exactly
// what it would on a zero kit. The session and the controller register
// themselves as their engine's handlers, so a reset registers nothing
// new either.
//
// A jittered replay's stream is copied from the kit's streams at their
// start, kept by seed (jitter), so a warm kit seeds no generator.
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
	src     sliceSource
	// jit is the engine's jitter stream on a jittered replay; seeded
	// holds up to maxSeeded streams at their start, replaced in turn
	// from next.
	jit    *sim.Rand
	seeded []seededRand
	next   int
}

// seededRand is a jitter stream at the start of its seed's.
type seededRand struct {
	seed int64
	r    sim.Rand
}

// maxSeeded bounds the seeded streams a kit keeps: the paper's jittered
// runs take three seeds.
const maxSeeded = 4

// jitter returns the kit's jitter stream at the start of seed's, copied
// from the stream the kit keeps for seed, which it seeds first if it
// keeps none.
func (k *kit) jitter(seed int64) *sim.Rand {
	i := 0
	for i < len(k.seeded) && k.seeded[i].seed != seed {
		i++
	}
	if i == len(k.seeded) {
		if k.seeded == nil {
			k.seeded = make([]seededRand, 0, maxSeeded)
		}
		if len(k.seeded) < maxSeeded {
			k.seeded = k.seeded[:i+1]
		} else {
			i, k.next = k.next, (k.next+1)%maxSeeded
		}
		k.seeded[i].seed = seed
		k.seeded[i].r.Seed(seed)
	}
	if k.jit == nil {
		k.jit = new(sim.Rand)
	}
	*k.jit = k.seeded[i].r
	return k.jit
}

// kits holds the kits of clean one-shot replays. A pooled kit may
// still point at what its last replay handed out — the records, the
// tracer — and at what it was handed — the scenario, the source, a
// policy, a probe — but writes to none of it again: its next open
// resets every part, dropping them. Nor does what it handed out reach
// back into it: every job of a drained replay has ended, settling its
// span, so reading the tracer calls into no instance the kit recycles,
// and a record holds no pointer into the job slab the kit refills.
var kits sync.Pool

// replay is the one-shot form behind every Run* entry point and the
// paper's runs (RunPaper): open on a pooled kit (a zero one for
// file-backed shared memory, which never goes back), drain, and pool
// the kit again if the run was clean. A nil src replays s.Subs.
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
	closeSource(sess.src)
	return sess.result(sess.ctl.Records)
}
