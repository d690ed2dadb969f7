// Package integration_test exercises the whole live stack end to end:
// hybrid MPI+OpenMP-style applications on the real runtimes, with DLB
// attached through the OMPT and PMPI hooks, repartitioned by an
// administrator playing slurmd — the §4/§5 machinery with no
// simulation involved.
package integration_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dlb"
	"repro/drom"
	"repro/internal/mpisim"
	"repro/internal/omprt"
	"repro/internal/ompss"
)

// hybridApp is a 2-rank MPI+OpenMP application on one 16-CPU node.
type hybridApp struct {
	node     *dlb.Node
	world    *mpisim.World
	procs    []*dlb.Process
	runtimes []*omprt.Runtime
}

func newHybridApp(t *testing.T) *hybridApp {
	t.Helper()
	app := &hybridApp{
		node:  dlb.NewNode("node0", 16),
		world: mpisim.NewWorld(2),
	}
	for r := 0; r < 2; r++ {
		mask := dlb.CPURange(r*8, r*8+7)
		p, err := dlb.Init(app.node, 0, mask, "--drom")
		if err != nil {
			t.Fatal(err)
		}
		rt := omprt.NewBound(mask)
		omprt.AttachDLB(rt, p)
		mpisim.AttachDLB(app.world.Rank(r), p)
		app.procs = append(app.procs, p)
		app.runtimes = append(app.runtimes, rt)
	}
	return app
}

func (a *hybridApp) finalize() {
	for _, p := range a.procs {
		p.Finalize()
	}
}

// TestHybridRepartitionEndToEnd: the admin repartitions mid-run; both
// ranks' teams adapt at their next region, iterations keep completing,
// and allreduce results stay correct throughout.
func TestHybridRepartitionEndToEnd(t *testing.T) {
	app := newHybridApp(t)
	defer app.finalize()
	admin, err := drom.Attach(app.node)
	if err != nil {
		t.Fatal(err)
	}

	var iterations atomic.Int32
	var badSum atomic.Int32
	teamSizes := make([][]int, 2)
	var mu sync.Mutex

	go func() {
		time.Sleep(30 * time.Millisecond)
		// 12/4 split: rank 0 shrinks, rank 1 grows.
		if err := admin.SetProcessMask(app.procs[0].PID(), dlb.CPURange(0, 3), drom.None); err != nil {
			t.Error(err)
		}
		if err := admin.SetProcessMask(app.procs[1].PID(), dlb.CPURange(4, 15), drom.Steal); err != nil {
			t.Error(err)
		}
	}()

	app.world.Run(func(rank *mpisim.Rank) {
		rt := app.runtimes[rank.RankID()]
		for iter := 0; iter < 12; iter++ {
			var count atomic.Int64
			rt.ParallelFor(256, omprt.Static, func(i int, ti omprt.ThreadInfo) {
				count.Add(1)
			})
			if count.Load() != 256 {
				t.Errorf("rank %d iter %d: %d iterations ran", rank.RankID(), iter, count.Load())
			}
			mu.Lock()
			teamSizes[rank.RankID()] = append(teamSizes[rank.RankID()], rt.NumThreads())
			mu.Unlock()
			sum := rank.Allreduce(mpisim.OpSum, 1)
			if sum != 2 {
				badSum.Add(1)
			}
			iterations.Add(1)
			time.Sleep(8 * time.Millisecond)
		}
	})

	if iterations.Load() != 24 || badSum.Load() != 0 {
		t.Fatalf("iterations=%d badSums=%d", iterations.Load(), badSum.Load())
	}
	// Both ranks ended on the new team sizes.
	if got := app.runtimes[0].NumThreads(); got != 4 {
		t.Errorf("rank 0 final team = %d, want 4", got)
	}
	if got := app.runtimes[1].NumThreads(); got != 12 {
		t.Errorf("rank 1 final team = %d, want 12", got)
	}
	// The transition happened mid-run: rank 0 saw both 8 and 4.
	saw := map[int]bool{}
	for _, s := range teamSizes[0] {
		saw[s] = true
	}
	if !saw[8] || !saw[4] {
		t.Errorf("rank 0 team sizes %v missed the transition", teamSizes[0])
	}
	// Masks are disjoint at the end.
	if app.procs[0].Mask().Intersects(app.procs[1].Mask()) {
		t.Errorf("final masks overlap: %v / %v", app.procs[0].Mask(), app.procs[1].Mask())
	}
}

// TestPreInitHandshakeLive: the full SLURM-like launch against live
// processes — PreInit reserves CPUs, the victim's next parallel region
// shrinks, the child inherits the reservation, PostFinalize returns
// the CPUs.
func TestPreInitHandshakeLive(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	victim, err := dlb.Init(node, 0, node.AllCPUs(), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Finalize()
	vrt := omprt.NewBound(node.AllCPUs())
	omprt.AttachDLB(vrt, victim)

	admin, _ := drom.Attach(node)
	childPID := node.AllocPID()
	if err := admin.PreInit(childPID, dlb.CPURange(8, 15), drom.Steal); err != nil {
		t.Fatal(err)
	}
	// The victim's next region is the malleability point.
	vrt.Parallel(func(ti omprt.ThreadInfo, team int) {})
	vrt.Parallel(func(ti omprt.ThreadInfo, team int) {
		if team != 8 {
			t.Errorf("victim team = %d, want 8", team)
		}
	})
	if b := vrt.Binding(); !b.Equal(dlb.CPURange(0, 7)) {
		t.Errorf("victim binding = %v, want the unstolen 0-7", b)
	}

	// The "child process" starts (task-based this time) and inherits
	// the reserved mask.
	child, err := dlb.Init(node, childPID, node.AllCPUs(), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	crt := ompss.New(child.NumCPUs())
	ompss.AttachDLB(crt, child)
	if child.NumCPUs() != 8 {
		t.Fatalf("child cpus = %d", child.NumCPUs())
	}
	var n atomic.Int32
	for i := 0; i < 32; i++ {
		crt.Submit(func() { n.Add(1) })
	}
	crt.Shutdown()
	if n.Load() != 32 {
		t.Fatalf("child ran %d tasks", n.Load())
	}
	child.Finalize()

	// post_term: CPUs go back; the victim recovers at its next region.
	if err := admin.PostFinalize(childPID, drom.ReturnStolen); err != nil {
		// The child finalized itself; the stolen CPUs were already
		// freed, so ErrNoProc is acceptable — recover manually like
		// release_resources would.
		m, _ := admin.ProcessMask(victim.PID(), drom.None)
		if err2 := admin.SetProcessMask(victim.PID(), m.Or(dlb.CPURange(8, 15)), drom.None); err2 != nil {
			t.Fatal(err2)
		}
	}
	vrt.Parallel(func(ti omprt.ThreadInfo, team int) {})
	vrt.Parallel(func(ti omprt.ThreadInfo, team int) {
		if team != 16 {
			t.Errorf("victim team after return = %d, want 16", team)
		}
	})
}

// TestManyProcessesChurnLive stresses the node shared memory with
// processes starting, resizing and finishing concurrently while an
// admin repartitions — the live analogue of the simulator fuzz test.
func TestManyProcessesChurnLive(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	admin, _ := drom.Attach(node)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				mask := dlb.CPURange(w*4, w*4+3)
				p, err := dlb.Init(node, 0, mask, "--drom")
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, round, err)
					return
				}
				for i := 0; i < 5; i++ {
					p.PollDROM()
					time.Sleep(time.Millisecond)
				}
				if err := p.Finalize(); err != nil {
					t.Errorf("finalize: %v", err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-time.After(2 * time.Millisecond):
				pids, _ := admin.PIDList()
				for _, pid := range pids {
					m, err := admin.ProcessMask(pid, drom.None)
					if err != nil || m.Count() <= 1 {
						continue
					}
					admin.SetProcessMask(pid, m.TakeLowest(m.Count()-1), drom.None)
				}
			case <-doneCh(&wg):
				return
			}
		}
	}()
	<-done
	if pids, _ := admin.PIDList(); len(pids) != 0 {
		t.Errorf("leaked processes: %v", pids)
	}
}

// doneCh adapts a WaitGroup to a channel (closed when Wait returns).
func doneCh(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// TestHybridWithCommunicators runs DLB-attached ranks over two nodes,
// one shared memory per node as multi-node DLB deployments have, and
// reduces across all of them.
func TestHybridWithCommunicators(t *testing.T) {
	world := mpisim.NewWorld(4)
	nodes := []*dlb.Node{dlb.NewNode("node0", 16), dlb.NewNode("node1", 16)}
	procs := make([]*dlb.Process, 4)
	for r := 0; r < 4; r++ {
		nodeIdx := r / 2
		lo := (r % 2) * 8
		p, err := dlb.Init(nodes[nodeIdx], 0, dlb.CPURange(lo, lo+7), "--drom")
		if err != nil {
			t.Fatal(err)
		}
		procs[r] = p
		mpisim.AttachDLB(world.Rank(r), p)
	}
	defer func() {
		for _, p := range procs {
			p.Finalize()
		}
	}()

	world.Run(func(r *mpisim.Rank) {
		if sum := r.Allreduce(mpisim.OpSum, float64(r.RankID())); sum != 6 {
			t.Errorf("rank %d global sum = %v, want 6", r.RankID(), sum)
		}
	})
}
