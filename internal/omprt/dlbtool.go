package omprt

import "repro/dlb"

// dlbTool is the DLB↔OpenMP integration of §4.1: DLB registered as an
// OMPT tool. At every parallel construct it polls DROM; when an
// administrator changed the process mask, the resize callbacks set the
// team size and re-pin the threads before the region forms. With the
// process in async mode ("--mode=async") the callbacks fire from its
// helper goroutine instead, and the tool's poll is a cheap no-op.
type dlbTool struct {
	proc *dlb.Process
}

// AttachDLB wires a DLB process to an OpenMP-like runtime: it
// registers the resize callbacks (so mask changes resize the runtime)
// and installs the OMPT tool (so regions are polling points).
func AttachDLB(rt *Runtime, proc *dlb.Process) {
	proc.OnResize(rt.SetNumThreads, rt.SetBinding)
	rt.RegisterTool(&dlbTool{proc: proc})
}

// ParallelBegin implements Tool: a DROM polling point.
func (t *dlbTool) ParallelBegin(rt *Runtime, requested int) {
	t.proc.PollDROM()
}

// ParallelEnd implements Tool.
func (t *dlbTool) ParallelEnd(rt *Runtime) {}

// ImplicitTask implements Tool.
func (t *dlbTool) ImplicitTask(rt *Runtime, threadNum, teamSize int) {}
