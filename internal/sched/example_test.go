package sched_test

import (
	"fmt"

	"repro/internal/sched"
)

// ExampleNew shows EASY backfilling on a 2-node snapshot: the queue
// head (#1) needs a whole 16-core node and is blocked, so it gets a
// reservation at the running job's projected end; the small job (#2)
// finishes before that shadow time and may jump ahead.
func ExampleNew() {
	p, err := sched.New("easy")
	if err != nil {
		panic(err)
	}
	st := &sched.State{
		Now:          0,
		CoresPerNode: 16,
		Free:         []int{4, 4},
		Queue: []sched.Job{
			{ID: 1, Nodes: 1, CPUsPerNode: 16, MinCPUsPerNode: 1, Walltime: 600},
			{ID: 2, Nodes: 1, CPUsPerNode: 4, MinCPUsPerNode: 1, Walltime: 60},
		},
		Running: []sched.Running{
			{ID: 0, Start: 0, Walltime: 300, Nodes: []int{0, 1}, CPUsPerNode: 12, ReqCPUsPerNode: 12, MinCPUsPerNode: 1},
		},
	}
	for _, a := range p.Schedule(st) {
		fmt.Println(a)
	}
	// Output:
	// start(#2)
}

// ExampleNew_malleable shows the DROM-aware policy admitting a
// blocked head by shrinking a running malleable job toward the
// equipartition: the running job gives up CPUs through
// DROM_SetProcessMask and the head starts immediately in the freed
// cores.
func ExampleNew_malleable() {
	p, err := sched.New("malleable-shrink")
	if err != nil {
		panic(err)
	}
	st := &sched.State{
		Now:          0,
		CoresPerNode: 16,
		Free:         []int{0},
		Queue: []sched.Job{
			{ID: 2, Nodes: 1, CPUsPerNode: 16, MinCPUsPerNode: 2, Walltime: 300},
		},
		Running: []sched.Running{
			{ID: 1, Start: 0, Walltime: 600, Nodes: []int{0}, CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 2, Malleable: true},
		},
	}
	for _, a := range p.Schedule(st) {
		fmt.Println(a)
	}
	// Output:
	// shrink(#1→8 cpus/node)
	// start(#2→8 cpus/node)
}

// ExampleParsePolicySet shows the per-partition policy grammar: a
// bare name is the default, partition=policy pairs override it, and
// aliases canonicalize at parse time.
func ExampleParsePolicySet() {
	ps, err := sched.ParsePolicySet("easy,fat=shrink")
	if err != nil {
		panic(err)
	}
	fmt.Println(ps)
	for _, part := range []string{"batch", "fat"} {
		name, _ := ps.PolicyFor(part)
		fmt.Printf("%s -> %s\n", part, name)
	}
	// Output:
	// easy,fat=malleable-shrink
	// batch -> easy
	// fat -> malleable-shrink
}
