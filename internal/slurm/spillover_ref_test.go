package slurm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// This file keeps the spillover walk the controller shipped with
// before the pass was rebuilt on the incremental views: a snapshot of
// the global queue walked job by job, every room check a fresh scan of
// the partition's nodes, the host's head reservation projected again
// for every candidate. It works on plain copies of the controller's
// state and commits spills only in that copy, so it is the
// obviously-correct reference spillPass is checked against.

// refRun is one running job of the reference state.
type refRun struct {
	start, walltime float64
	nodes           []int // partition-local
}

// refPart is one partition of the reference state.
type refPart struct {
	names   []string // node names by local index
	cores   int
	free    []int // effective free CPUs per node, 0 while out of service
	state   []hwmodel.NodeState
	until   []float64 // repair / drain-end horizon
	running []refRun  // launch order
}

// refQueued is one waiting job of the reference state, in global queue
// order.
type refQueued struct {
	seq, home, nodes, cpus int
	submit, walltime       float64
	resume                 bool
}

// refDecision is one outcome of the walk: a spill committed onto
// nodes (names, comma-joined in name order), or a placement the host's
// head reservation refused (blocked, with the shadow time it cited).
type refDecision struct {
	seq     int
	host    int
	nodes   string
	blocked bool
	shadow  float64
}

// refState copies out of ctl everything the spill walk reads.
func refState(ctl *Controller) ([]refPart, []refQueued) {
	var parts []refPart
	for pi, p := range ctl.cluster.Spec.Partitions {
		offset := ctl.cluster.Spec.NodeOffset(pi)
		rp := refPart{names: ctl.cluster.Nodes[offset : offset+p.Nodes], cores: p.Machine.CoresPerNode()}
		for k := 0; k < p.Nodes; k++ {
			rp.free = append(rp.free, ctl.effectiveFree(offset+k).Count())
			state := hwmodel.NodeUp
			if ctl.nfState != nil {
				state = ctl.nfState[offset+k]
			}
			rp.state = append(rp.state, state)
			until := 0.0
			if ctl.nfState != nil {
				switch ctl.nfState[offset+k] {
				case hwmodel.NodeDown:
					until = ctl.nfDownUntil[offset+k]
				case hwmodel.NodeDraining:
					until = ctl.nfDrainUntil[offset+k]
				}
			}
			rp.until = append(rp.until, until)
		}
		for _, r := range ctl.views[pi].rjobs {
			rp.running = append(rp.running, refRun{r.start, r.job.Walltime, append([]int(nil), r.nodeIdxs...)})
		}
		parts = append(parts, rp)
	}
	// The global queue order, sorted here from every partition's records.
	var waiting []*queuedJob
	for pi := range ctl.views {
		waiting = append(waiting, ctl.views[pi].qjobs...)
	}
	sort.Slice(waiting, func(a, b int) bool {
		if waiting[a].job.Priority != waiting[b].job.Priority {
			return waiting[a].job.Priority > waiting[b].job.Priority
		}
		return waiting[a].seq < waiting[b].seq
	})
	var queue []refQueued
	for _, q := range waiting {
		queue = append(queue, refQueued{
			seq: q.seq, home: q.pidx, nodes: q.job.Nodes, cpus: q.job.CPUsPerNode(),
			submit: q.submit, walltime: q.job.Walltime, resume: q.resume != nil,
		})
	}
	return parts, queue
}

// refFits: the shape can ever run on the partition.
func refFits(p *refPart, q refQueued) bool {
	return q.nodes <= len(p.free) && q.cpus <= p.cores
}

// refHasRoom: q.nodes nodes hold q.cpus free CPUs each, counted by a
// fresh scan.
func refHasRoom(p *refPart, q refQueued) bool {
	if !refFits(p, q) {
		return false
	}
	n := 0
	for _, f := range p.free {
		if f >= q.cpus {
			n++
		}
	}
	return n >= q.nodes
}

// refPlacement picks the host nodes as freeCandsSorted does: the nodes
// with room, stably ordered freest first, the first q.nodes of them.
func refPlacement(p *refPart, q refQueued) []int {
	var cands []int
	for i, f := range p.free {
		if f >= q.cpus {
			cands = append(cands, i)
		}
	}
	if len(cands) < q.nodes {
		return nil
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return p.free[cands[a]] > p.free[cands[b]]
	})
	return cands[:q.nodes]
}

// refReservation projects when each node of p has lost all its
// current occupants and reserves the headNodes earliest-free nodes
// (ties by node name) for the blocked head.
func refReservation(p *refPart, headNodes int, now float64) (shadow float64, reserved []int) {
	freeAt := make([]float64, len(p.free))
	for i := range freeAt {
		freeAt[i] = now
		if p.state[i] != hwmodel.NodeUp && p.until[i] > now {
			freeAt[i] = p.until[i]
		}
	}
	for _, r := range p.running {
		end := r.start + sched.EffectiveWalltime(r.walltime)
		if end < now {
			end = now
		}
		for _, i := range r.nodes {
			if end > freeAt[i] {
				freeAt[i] = end
			}
		}
	}
	order := make([]int, len(freeAt))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if freeAt[order[a]] != freeAt[order[b]] {
			return freeAt[order[a]] < freeAt[order[b]]
		}
		return p.names[order[a]] < p.names[order[b]]
	})
	if headNodes > len(order) {
		headNodes = len(order)
	}
	for _, i := range order[:headNodes] {
		reserved = append(reserved, i)
		if freeAt[i] > shadow {
			shadow = freeAt[i]
		}
	}
	return shadow, reserved
}

// refNodeNames renders partition-local indices as the comma-joined
// node names in name order (the form KindJobStart reports).
func refNodeNames(p *refPart, nodes []int) string {
	names := make([]string, 0, len(nodes))
	for _, i := range nodes {
		names = append(names, p.names[i])
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// refSpillWalk is the reference spillover pass over (parts, queue).
func refSpillWalk(parts []refPart, queue []refQueued, now, after float64, minDepth int) []refDecision {
	if len(parts) < 2 {
		return nil
	}
	if minDepth < 1 {
		minDepth = 1
	}
	depth := make([]int, len(parts))
	waiting := map[int]bool{}
	for _, q := range queue {
		depth[q.home]++
		waiting[q.seq] = true
	}
	var out []refDecision
	for _, q := range queue {
		if !waiting[q.seq] || q.resume {
			continue
		}
		if depth[q.home] < minDepth || now-q.submit < after {
			continue
		}
		if refHasRoom(&parts[q.home], q) {
			continue
		}
		for host := range parts {
			p := &parts[host]
			if host == q.home || !refFits(p, q) {
				continue
			}
			nodes := refPlacement(p, q)
			if nodes == nil {
				continue
			}
			// The host's head: its first job still waiting.
			head := -1
			for i, h := range queue {
				if h.home == host && waiting[h.seq] {
					head = i
					break
				}
			}
			if head >= 0 {
				shadow, reserved := refReservation(p, queue[head].nodes, now)
				if now+sched.EffectiveWalltime(q.walltime) > shadow {
					clash := false
					for _, n := range nodes {
						for _, r := range reserved {
							clash = clash || n == r
						}
					}
					if clash {
						out = append(out, refDecision{seq: q.seq, host: host, blocked: true, shadow: shadow})
						continue
					}
				}
			}
			for _, n := range nodes {
				p.free[n] -= q.cpus
			}
			local := append([]int(nil), nodes...)
			sort.Ints(local)
			p.running = append(p.running, refRun{now, q.walltime, local})
			delete(waiting, q.seq)
			depth[q.home]--
			out = append(out, refDecision{seq: q.seq, host: host, nodes: refNodeNames(p, nodes)})
			break
		}
	}
	return out
}

// spillRecorder collects the spillover verdicts spillPass reports on
// the probe bus, in the reference's form.
type spillRecorder struct {
	parts     []hwmodel.Partition
	placement map[int]string // seq → KindJobStart placement
	out       []refDecision
}

func (r *spillRecorder) Emit(ev obs.Event) {
	host := -1
	for pi, p := range r.parts {
		if p.Name == ev.Partition {
			host = pi
		}
	}
	switch {
	case ev.Kind == obs.KindJobStart:
		r.placement[ev.Seq] = ev.Placement
	case ev.Kind == obs.KindAction && ev.Act == obs.ActSpill && ev.Reason == obs.ReasonSpilled:
		r.out = append(r.out, refDecision{seq: ev.Seq, host: host, nodes: r.placement[ev.Seq]})
	case ev.Kind == obs.KindAction && ev.Act == obs.ActSpill && ev.Reason == obs.ReasonBlockedByReservation:
		r.out = append(r.out, refDecision{seq: ev.Seq, host: host, blocked: true, shadow: ev.Shadow})
	}
}

// TestSpillPassMatchesReference replays seeded random workloads on
// random 1–3 partition clusters — scripted down and drain windows,
// both node-selection orders, every policy, random wait and depth
// thresholds — with the spillover pass taken out of the cycle, and at
// every checkpoint runs it by hand next to the reference walk over a
// copy of the same state: both must reach the same decisions in the
// same order — which job spills to which partition on which nodes,
// which placement a head reservation refuses and at what shadow time,
// including everything that follows a commit made mid-pass. The state
// left behind must pass the incremental-view oracle.
func TestSpillPassMatchesReference(t *testing.T) {
	const scenarios, checkpoints = 260, 40
	machines := []hwmodel.Machine{hwmodel.MN3(), hwmodel.FatNode()}
	states, spills, blocks := 0, 0, 0
	for seed := int64(1); seed <= scenarios; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var spec hwmodel.ClusterSpec
		for pi, np := 0, 1+rng.Intn(3); pi < np; pi++ {
			spec.Partitions = append(spec.Partitions, hwmodel.Partition{
				Name: fmt.Sprintf("p%d", pi), Nodes: 1 + rng.Intn(3), Machine: machines[rng.Intn(2)],
			})
		}
		eng := sim.NewEngine()
		c, err := NewClusterSpecReg(eng, spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctl := NewController(c, PolicyDROM)
		policy, err := sched.New(sched.Names()[rng.Intn(len(sched.Names()))])
		if err != nil {
			t.Fatal(err)
		}
		ctl.UseSched(policy)
		ctl.SpillAfter = []float64{0, 0, 20, 80}[rng.Intn(4)]
		ctl.SpillDepth = rng.Intn(4)
		// A draw once chose the node order; it is still made, so each
		// seed builds the scenario it always has.
		rng.Intn(2)
		const horizon = 600.0
		if rng.Intn(2) == 0 {
			var script []string
			for k, nw := 0, 1+rng.Intn(3); k < nw; k++ {
				kind := []string{"down", "drain"}[rng.Intn(2)]
				from := rng.Float64() * horizon
				script = append(script, fmt.Sprintf("node%d:%s@%.0f..%.0f",
					rng.Intn(len(c.Nodes)), kind, from, from+20+rng.Float64()*200))
			}
			if err := ctl.InstallFaults(FaultPlan{Script: strings.Join(script, "+"), MaxRequeues: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for i, nj := 0, 25+rng.Intn(30); i < nj; i++ {
			pi := rng.Intn(len(spec.Partitions))
			part := spec.Partitions[pi]
			nodes := 1 + rng.Intn(part.Nodes)
			cpus := 1 << rng.Intn(6) // 1..32
			if cpus > part.Machine.CoresPerNode() {
				cpus = part.Machine.CoresPerNode()
			}
			j := &Job{
				Name: fmt.Sprintf("j%d", i), Spec: fastSpec(10 + rng.Intn(150)),
				Cfg:   apps.Config{Ranks: nodes, Threads: cpus},
				Nodes: nodes, Priority: rng.Intn(3), Partition: part.Name,
				Walltime: []float64{0, 30, 100, 100, 400, 4000}[rng.Intn(6)], Malleable: rng.Intn(3) > 0,
			}
			eng.At(rng.Float64()*horizon*0.8, func() {
				if err := ctl.Submit(j); err != nil {
					t.Error(err)
				}
			})
		}
		rec := &spillRecorder{parts: spec.Partitions, placement: map[int]string{}}
		for k := 1; k <= checkpoints; k++ {
			eng.RunUntil(horizon * float64(k) / checkpoints)
			if ctl.seq == 0 {
				continue // nothing submitted yet
			}
			parts, queue := refState(ctl)
			want := refSpillWalk(parts, queue, eng.Now(), ctl.SpillAfter, ctl.SpillDepth)
			rec.out = rec.out[:0]
			ctl.Probe = rec
			ctl.spillPass()
			ctl.Probe = nil
			ctl.checkFreeInvariant()
			checkErr(t, ctl)
			if fmt.Sprint(rec.out) != fmt.Sprint(want) {
				t.Fatalf("seed %d t=%v (%s, %d queued):\n got %+v\nwant %+v",
					seed, eng.Now(), spec, len(queue), rec.out, want)
			}
			states++
			for _, d := range want {
				if d.blocked {
					blocks++
				} else {
					spills++
				}
			}
		}
		eng.Run()
		checkErr(t, ctl)
	}
	// The comparison must not go vacuous.
	t.Logf("%d states, %d spills, %d blocked placements", states, spills, blocks)
	if states < 10000 || spills < 500 || blocks < 20 {
		t.Errorf("compared %d states with %d spills and %d blocked placements; want at least 10000 / 500 / 20", states, spills, blocks)
	}
}
