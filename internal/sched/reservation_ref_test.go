package sched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the release-level reservation the policies shipped
// with before the projection was re-ordered per job: one release per
// (running job, node), stable-sorted by (time, node), consumed in
// batches. It is the obviously-correct reference the job-level
// scratch.reservation is checked against on random states.

// refRelease is one future capacity return: at time at, node gets cpus
// back.
type refRelease struct {
	at   float64
	node int
	cpus int
}

// refReleasesOf projects when the running set returns its CPUs.
// Overdue estimates are clamped to now; allocs, when non-nil,
// overrides per-job allocations by job ID.
func refReleasesOf(s *State, allocs map[int]int) []refRelease {
	var rels []refRelease
	for _, r := range s.Running {
		at := r.EndEstimate()
		if at < s.Now {
			at = s.Now
		}
		cpus := r.CPUsPerNode
		if allocs != nil {
			cpus = allocs[r.ID]
		}
		for _, n := range r.Nodes {
			rels = append(rels, refRelease{at: at, node: n, cpus: cpus})
		}
	}
	return rels
}

// refReservation is the reference EASY reservation: shadow time and
// spare capacity per node after the head's placement is carved out.
func refReservation(s *State, free []int, head Job, allocs map[int]int, started []refRelease) (float64, []int) {
	rels := append(refReleasesOf(s, allocs), started...)
	sort.SliceStable(rels, func(i, j int) bool {
		if rels[i].at != rels[j].at {
			return rels[i].at < rels[j].at
		}
		return rels[i].node < rels[j].node
	})
	proj := append([]int(nil), free...)
	shadow := s.Now
	i := 0
	for {
		spare := append([]int(nil), proj...)
		if (&scratch{}).place(spare, head.Nodes, head.CPUsPerNode) != nil {
			return shadow, spare
		}
		if i >= len(rels) {
			return math.Inf(1), proj
		}
		shadow = rels[i].at
		for i < len(rels) && rels[i].at <= shadow {
			if n := rels[i].node; proj[n] >= 0 {
				proj[n] += rels[i].cpus
				if proj[n] > s.CoresPerNode {
					proj[n] = s.CoresPerNode
				}
			}
			i++
		}
	}
}

// randNodes draws k distinct node indices below n, ascending.
func randNodes(r *rand.Rand, n, k int) []int {
	out := r.Perm(n)[:k]
	sort.Ints(out)
	return out
}

// TestReservationMatchesReference: on seeded random states — nodes
// marked unavailable (-1), overdue and unknown walltimes, end
// estimates drawn from a small set so batches tie, same-cycle allocs
// overrides and started releases, heads too wide to ever fit — the
// job-level reservation returns exactly the reference's shadow time
// and spare vector.
func TestReservationMatchesReference(t *testing.T) {
	const states = 12000
	rng := rand.New(rand.NewSource(17))
	walls := []float64{0, -1, 50, 100, 100, 250, 400, 400, 3600}
	var sc scratch
	for it := 0; it < states; it++ {
		n := 1 + rng.Intn(8)
		s := &State{Now: float64(rng.Intn(500)), CoresPerNode: 16}
		for i := 0; i < n; i++ {
			f := rng.Intn(18) - 1 // -1 marks an unavailable node
			if f > 16 {
				f = 16
			}
			s.Free = append(s.Free, f)
		}
		for k, nr := 0, rng.Intn(13); k < nr; k++ {
			s.Running = append(s.Running, Running{
				ID:          100 + k,
				Start:       float64(rng.Intn(600)) - 200, // some estimates are overdue
				Walltime:    walls[rng.Intn(len(walls))],
				Nodes:       randNodes(rng, n, 1+rng.Intn(n)),
				CPUsPerNode: rng.Intn(17),
			})
		}
		var allocs []int
		var allocsByID map[int]int
		if rng.Intn(2) == 0 {
			allocsByID = map[int]int{}
			for _, r := range s.Running {
				a := rng.Intn(r.CPUsPerNode + 1)
				allocs = append(allocs, a)
				allocsByID[r.ID] = a
			}
			if allocs == nil {
				allocs = []int{}
			}
		}
		sc.reset(s)
		var started []refRelease
		for k, ns := 0, rng.Intn(4); k < ns; k++ {
			nodes := randNodes(rng, n, 1+rng.Intn(n))
			cpus := 1 + rng.Intn(16)
			at := s.Now + EffectiveWalltime(walls[rng.Intn(len(walls))])
			sc.appendStarted(nodes, cpus, at)
			for _, node := range nodes {
				started = append(started, refRelease{at: at, node: node, cpus: cpus})
			}
		}
		head := Job{ID: 1, Nodes: 1 + rng.Intn(n+1), CPUsPerNode: 1 + rng.Intn(16)}

		wantShadow, wantSpare := refReservation(s, s.Free, head, allocsByID, started)
		gotShadow, gotSpare := sc.reservation(s, sc.free, &head, allocs)
		if gotShadow != wantShadow || !slices.Equal(gotSpare, wantSpare) {
			t.Fatalf("state %d (free %v, running %+v, started %+v, allocs %v, head %+v):\n got (%v, %v)\nwant (%v, %v)",
				it, s.Free, s.Running, started, allocs, head, gotShadow, gotSpare, wantShadow, wantSpare)
		}
	}
}
