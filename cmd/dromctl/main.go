// Command dromctl demonstrates the administrator workflow of §3.2: a
// user-written administrator process attaching to a node's DROM
// system, listing processes and re-assigning their CPUs while they
// run. Because this reproduction is a single-process library (the
// shared memory is in-process), dromctl hosts a demo node with a few
// polling DLB processes and executes a scripted admin session against
// them, printing each DROM call and its effect.
//
// With -backend file:<dir> dromctl instead attaches to a file-backed
// segment shared with OTHER OS processes (e.g. slurmsim -drom-agent)
// and runs a register/query/setmask session against whatever is live
// in the segment — real two-process DROM, like the C library.
//
// Usage:
//
//	dromctl                 # default in-process demo: list, shrink, expand
//	dromctl -procs 3 -cpus 24
//	dromctl -backend file:/tmp/drom -node node0 -mask 0-3   # attach mode
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/dlb"
	"repro/drom"
	"repro/internal/version"
)

func main() {
	procs := flag.Int("procs", 2, "number of demo DLB processes on the node")
	cpus := flag.Int("cpus", 16, "CPUs of the demo node (attach mode: CPU count if the segment must be created)")
	backend := flag.String("backend", "mem", "shmem backend: mem (in-process demo) or file:<dir> "+
		"(attach to a file-backed registry shared with other OS processes)")
	node := flag.String("node", "node0", "attach mode: segment (node) name to attach to")
	pid := flag.Int64("pid", 0, "attach mode: target PID for -mask (0 = first registered process)")
	maskSpec := flag.String("mask", "", "attach mode: stage this cpulist (e.g. 0-3,8) on the target "+
		"via DROM_SetProcessMask and wait for the target to apply it")
	wait := flag.Duration("wait", 30*time.Second, "attach mode: how long to wait for a registered process")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dromctl: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(1)
	}
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	var err error
	switch {
	case *backend == "mem":
		err = run(*procs, *cpus)
	case strings.HasPrefix(*backend, "file:"):
		err = runAttach(strings.TrimPrefix(*backend, "file:"), *node, *cpus,
			dlb.PID(*pid), *maskSpec, *wait)
	default:
		err = fmt.Errorf("unknown -backend %q (want mem or file:<dir>)", *backend)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dromctl: %v\n", err)
		os.Exit(1)
	}
}

func run(nprocs, ncpus int) error {
	if nprocs < 1 || ncpus < nprocs {
		return fmt.Errorf("need at least 1 process and 1 CPU per process")
	}
	node := dlb.NewNode("demo", ncpus)

	// Launch the demo processes: each polls DROM every few ms, the way
	// an instrumented application polls at its safe points.
	per := ncpus / nprocs
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var handles []*dlb.Process
	for i := 0; i < nprocs; i++ {
		lo := i * per
		hi := lo + per - 1
		if i == nprocs-1 {
			hi = ncpus - 1
		}
		p, err := dlb.Init(node, 0, dlb.CPURange(lo, hi), "--drom")
		if err != nil {
			return err
		}
		handles = append(handles, p)
		wg.Add(1)
		go func(p *dlb.Process) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
					p.PollDROM()
				}
			}
		}(p)
	}

	admin, err := drom.Attach(node)
	if err != nil {
		return err
	}
	defer admin.Detach()
	fmt.Println("$ DROM_Attach()               -> DLB_SUCCESS")

	list := func() error {
		pids, err := admin.PIDList()
		if err != nil {
			return err
		}
		fmt.Printf("$ DROM_GetPidList()           -> %v\n", pids)
		for _, pid := range pids {
			m, err := admin.ProcessMask(pid, drom.None)
			if err != nil {
				return err
			}
			fmt.Printf("$ DROM_GetProcessMask(%d)   -> %s (%d CPUs)\n", pid, m, m.Count())
		}
		return nil
	}
	if err := list(); err != nil {
		return err
	}

	// Shrink the first process to half, synchronously: the call
	// returns only after the target polled and applied.
	target := handles[0].PID()
	cur, _ := admin.ProcessMask(target, drom.None)
	half := cur.TakeLowest(cur.Count() / 2)
	fmt.Printf("$ DROM_SetProcessMask(%d, %s, SYNC)\n", target, half)
	if err := admin.SetProcessMask(target, half, drom.Sync); err != nil {
		return err
	}
	fmt.Println("  ... target polled and applied -> DLB_SUCCESS")
	if err := list(); err != nil {
		return err
	}

	// Give everything back.
	fmt.Printf("$ DROM_SetProcessMask(%d, %s, SYNC)\n", target, cur)
	if err := admin.SetProcessMask(target, cur, drom.Sync); err != nil {
		return err
	}
	if err := list(); err != nil {
		return err
	}

	close(stop)
	wg.Wait()
	for _, p := range handles {
		p.Finalize()
	}
	fmt.Println("$ DROM_Detach()               -> DLB_SUCCESS")
	return nil
}
