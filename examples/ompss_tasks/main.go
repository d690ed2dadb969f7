// OmpSs integration (§4.2): a task-based application on the
// OmpSs-like runtime with native DLB support. Unlike the OpenMP
// integration (which reacts at parallel-region boundaries), the task
// runtime polls DROM between tasks, so malleability takes effect with
// task granularity. An administrator shrinks and re-expands the
// process while a dependency graph executes.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/dlb"
	"repro/drom"
	"repro/internal/ompss"
)

func main() {
	node := dlb.NewNode("node0", 8)
	proc, err := dlb.Init(node, 0, node.AllCPUs(), "--drom")
	if err != nil {
		panic(err)
	}
	defer proc.Finalize()

	rt := ompss.New(proc.NumCPUs())
	defer rt.Shutdown()
	ompss.AttachDLB(rt, proc)
	fmt.Printf("task runtime started with %d workers\n", rt.NumWorkers())

	admin, _ := drom.Attach(node)
	go func() {
		time.Sleep(40 * time.Millisecond)
		fmt.Println("[admin] shrinking to 2 CPUs")
		admin.SetProcessMask(proc.PID(), dlb.CPURange(0, 1), drom.None)
		time.Sleep(80 * time.Millisecond)
		fmt.Println("[admin] expanding to 8 CPUs")
		admin.SetProcessMask(proc.PID(), dlb.CPURange(0, 7), drom.None)
	}()

	// A blocked-matrix-style dependency graph: stage k writes block k,
	// stage k+1 reads blocks k and k+1.
	var tasksDone atomic.Int32
	for stage := 0; stage < 6; stage++ {
		for blk := 0; blk < 16; blk++ {
			name := fmt.Sprintf("block-%d", blk)
			deps := []ompss.Dep{{Name: name, Mode: ompss.InOut}}
			if blk > 0 {
				deps = append(deps, ompss.Dep{Name: fmt.Sprintf("block-%d", blk-1), Mode: ompss.In})
			}
			rt.Submit(func() {
				time.Sleep(2 * time.Millisecond) // task body
				tasksDone.Add(1)
			}, deps...)
		}
		rt.TaskWait()
		fmt.Printf("stage %d done: %2d workers wanted, %2d active, mask=%s\n",
			stage, rt.NumWorkers(), rt.ActiveWorkers(), proc.Mask())
	}
	fmt.Printf("completed %d tasks; final worker count %d\n", tasksDone.Load(), rt.NumWorkers())

	// The administrator can consult the run-time statistics (the
	// paper's future-work data collection).
	st, _ := admin.Stats(proc.PID())
	fmt.Printf("[admin] stats: polls=%d maskChanges=%d cpusLost=%d cpusGained=%d\n",
		st.Polls, st.MaskChanges, st.CPUsLost, st.CPUsGained)
}
