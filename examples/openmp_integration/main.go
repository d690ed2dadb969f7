// OpenMP/OMPT integration (§4.1): a hybrid MPI+OpenMP-style
// application running on the in-process runtimes. DLB registers as an
// OMPT tool on each rank's OpenMP-like runtime and intercepts each
// rank's MPI calls (PMPI). When the administrator repartitions the
// node, the next parallel region of the affected rank forms with the
// new team size and pinning — no application code involved, the
// paper's "completely transparent to the user" path.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/dlb"
	"repro/drom"
	"repro/internal/mpisim"
	"repro/internal/omprt"
)

func main() {
	node := dlb.NewNode("node0", 16)

	// Two MPI ranks on the node, 8 CPUs each.
	world := mpisim.NewWorld(2)
	procs := make([]*dlb.Process, 2)
	runtimes := make([]*omprt.Runtime, 2)
	for r := 0; r < 2; r++ {
		mask := dlb.CPURange(r*8, r*8+7)
		p, err := dlb.Init(node, 0, mask, "--drom")
		if err != nil {
			panic(err)
		}
		procs[r] = p
		rt := omprt.NewBound(mask)
		runtimes[r] = rt
		// §4.1: DLB as an OMPT tool — every parallel construct is a
		// DROM polling point and resizes the team on updates.
		omprt.AttachDLB(rt, p)
		// §4.3: PMPI interception — every MPI call polls too.
		mpisim.AttachDLB(world.Rank(r), p)
	}
	defer procs[0].Finalize()
	defer procs[1].Finalize()

	// The administrator repartitions mid-run: rank 0 shrinks to 4
	// CPUs, rank 1 grows to 12.
	admin, _ := drom.Attach(node)
	go func() {
		time.Sleep(50 * time.Millisecond)
		fmt.Println("[admin] repartitioning: rank0 -> 0-3, rank1 -> 4-15")
		if err := admin.SetProcessMask(procs[0].PID(), dlb.CPURange(0, 3), drom.None); err != nil {
			panic(err)
		}
		if err := admin.SetProcessMask(procs[1].PID(), dlb.CPURange(4, 15), drom.Steal); err != nil {
			panic(err)
		}
	}()

	// Hybrid main loop: parallel region + MPI allreduce per iteration.
	world.Run(func(rank *mpisim.Rank) {
		rt := runtimes[rank.RankID()]
		for iter := 0; iter < 6; iter++ {
			var teamSize atomic.Int32
			rt.ParallelFor(64, omprt.Static, func(i int, ti omprt.ThreadInfo) {
				teamSize.Store(int32(ti.Num + 1)) // racy max, fine for a demo
				busyWork(i)
			})
			sum := rank.Allreduce(mpisim.OpSum, float64(rank.RankID()+1))
			if iter%2 == 0 {
				fmt.Printf("rank %d iter %d: team<=%2d threads, mask=%s, allreduce=%v\n",
					rank.RankID(), iter, rt.NumThreads(), rt.Binding(), sum)
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
	fmt.Printf("final teams: rank0=%d threads (%s), rank1=%d threads (%s)\n",
		runtimes[0].NumThreads(), runtimes[0].Binding(),
		runtimes[1].NumThreads(), runtimes[1].Binding())
}

func busyWork(seed int) {
	acc := seed
	for k := 0; k < 50000; k++ {
		acc = acc*1103515245 + 12345
	}
	_ = acc
}
