package omprt

import (
	"repro/internal/cpuset"
	"repro/internal/dlbcore"
)

// dlbTool is the DLB↔OpenMP integration of §4.1: DLB registered as an
// OMPT tool. At every parallel construct it polls DROM; when an
// administrator changed the process mask, the DLB callbacks resize the
// team and re-pin its threads before the region forms. With the
// context in async mode the callbacks fire from the helper goroutine
// instead, and the tool's poll is a cheap no-op.
type dlbTool struct {
	ctx *dlbcore.Context
}

// AttachDLB wires a DLB context to an OpenMP-like runtime: it
// registers the DLB callbacks (so mask changes resize the runtime) and
// installs the OMPT tool (so regions are polling points).
func AttachDLB(rt *Runtime, ctx *dlbcore.Context) {
	ctx.SetCallbacks(dlbcore.Callbacks{
		SetNumThreads: rt.SetNumThreads,
		SetProcessMask: func(m cpuset.CPUSet) {
			rt.SetBinding(m)
			rt.SetNumThreads(m.Count())
		},
	})
	rt.RegisterTool(&dlbTool{ctx: ctx})
}

// ParallelBegin implements Tool: a DROM polling point.
func (t *dlbTool) ParallelBegin(rt *Runtime, requested int) {
	t.ctx.PollDROM()
}

// ParallelEnd implements Tool.
func (t *dlbTool) ParallelEnd(rt *Runtime) {}

// ImplicitTask implements Tool.
func (t *dlbTool) ImplicitTask(rt *Runtime, threadNum, teamSize int) {}
