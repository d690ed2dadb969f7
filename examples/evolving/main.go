// Evolving application (§2 related work, PMIx-style): the complement
// of DROM's manager-driven malleability. Here the *application* asks
// for resources — it posts a resize request, and the resource manager
// grants it when capacity frees up. The example runs a phase-based
// application that wants few CPUs in its I/O phase and many in its
// solver phase, with a manager goroutine serving the requests.
package main

import (
	"fmt"
	"time"

	"repro/dlb"
	"repro/drom"
)

func main() {
	node := dlb.NewNode("node0", 16)
	proc, err := dlb.Init(node, 0, dlb.CPURange(0, 3), "--drom")
	if err != nil {
		panic(err)
	}
	defer proc.Finalize()
	admin, err := drom.Attach(node)
	if err != nil {
		panic(err)
	}
	defer admin.Detach()

	// The resource manager: periodically serves outstanding requests
	// from the node's free CPUs.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				reqs, err := admin.ResizeRequests()
				if err != nil {
					return
				}
				for _, req := range reqs {
					cur, err := admin.ProcessMask(req.PID, drom.None)
					if err != nil {
						continue
					}
					// Grant whatever the process asked (the demo node
					// is otherwise empty, so requests always fit).
					var next dlb.CPUSet
					if req.Want <= cur.Count() {
						next = cur.TakeLowest(req.Want)
					} else {
						next = dlb.CPURange(0, req.Want-1)
					}
					fmt.Printf("[manager] granting pid %d: %d -> %d CPUs\n",
						req.PID, cur.Count(), req.Want)
					admin.SetProcessMask(req.PID, next, drom.None)
				}
			}
		}
	}()

	phases := []struct {
		name string
		want int
	}{
		{"io", 2}, {"solver", 16}, {"reduce", 4}, {"solver", 16}, {"io", 2},
	}
	for _, ph := range phases {
		if err := proc.RequestResize(ph.want); err != nil {
			panic(err)
		}
		// Poll until the grant arrives (an instrumented app would poll
		// at its natural safe points).
		deadline := time.Now().Add(time.Second)
		for proc.NumCPUs() != ph.want && time.Now().Before(deadline) {
			proc.PollDROM()
			time.Sleep(2 * time.Millisecond)
		}
		fmt.Printf("phase %-7s running with %2d CPUs (%s)\n", ph.name, proc.NumCPUs(), proc.Mask())
		time.Sleep(20 * time.Millisecond) // the phase's work
	}
	close(stop)

	st, _ := admin.Stats(proc.PID())
	fmt.Printf("[manager] final stats: maskChanges=%d gained=%d lost=%d polls=%d\n",
		st.MaskChanges, st.CPUsGained, st.CPUsLost, st.Polls)
}
