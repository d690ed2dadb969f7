package dlb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/derr"
)

// These tests reach below the public API: they drive the node's
// core.System as the administrator and read the segment and the LeWI
// module directly.

func TestInitFinalize(t *testing.T) {
	node := NewNode("node0", 16)
	sys := node.Internal()
	p, err := Init(node, 1, CPURange(0, 7), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCPUs() != 8 || p.PID() != 1 {
		t.Errorf("pid %d, cpus %d", p.PID(), p.NumCPUs())
	}
	if err := p.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := p.Finalize(); !errors.Is(err, derr.ErrNotInit) {
		t.Errorf("double Finalize = %v", err)
	}
	if _, _, _, err := p.PollDROM(); !errors.Is(err, derr.ErrNotInit) {
		t.Errorf("PollDROM after Finalize = %v", err)
	}
	if sys.Segment().NumProcs() != 0 {
		t.Error("process should be unregistered")
	}
}

func TestPollingModeAppliesAndFiresCallbacks(t *testing.T) {
	node := NewNode("node0", 16)
	p, _ := Init(node, 1, node.AllCPUs(), "--drom")
	defer p.Finalize()

	var gotN int
	var gotMask CPUSet
	p.OnResize(func(n int) { gotN = n }, func(m CPUSet) { gotMask = m })

	admin, _ := node.Internal().Attach()
	if code := admin.SetProcessMask(1, CPURange(0, 3), core.FlagNone); code.IsError() {
		t.Fatal(code)
	}
	// Not applied until the poll.
	if p.NumCPUs() != 16 {
		t.Fatal("mask applied before poll")
	}
	n, mask, ok, err := p.PollDROM()
	if !ok || err != nil || n != 4 || !mask.Equal(CPURange(0, 3)) {
		t.Fatalf("PollDROM = %d/%v/%v/%v", n, mask, ok, err)
	}
	if gotN != 4 || !gotMask.Equal(CPURange(0, 3)) {
		t.Errorf("callbacks got %d/%v", gotN, gotMask)
	}
	if _, _, ok, err := p.PollDROM(); ok || err != nil {
		t.Errorf("second poll = ok=%v err=%v", ok, err)
	}
}

func TestAsyncModeSatisfiesSyncAdmin(t *testing.T) {
	node := NewNode("node0", 16)
	sys := node.Internal()
	sys.SyncTimeout = 2 * time.Second
	p, _ := Init(node, 1, node.AllCPUs(), "--drom --mode=async")
	defer p.Finalize()
	admin, _ := sys.Attach()
	// FlagSync works because the helper applies the mask autonomously.
	if code := admin.SetProcessMask(1, CPURange(4, 7), core.FlagSync); code != derr.Success {
		t.Fatalf("sync set against async target = %v", code)
	}
}

func TestLewiThroughProcess(t *testing.T) {
	node := NewNode("node0", 16)
	p1, _ := Init(node, 1, CPURange(0, 7), "--lewi")
	p2, _ := Init(node, 2, CPURange(8, 15), "--lewi")
	defer p1.Finalize()
	defer p2.Finalize()

	kept := p1.IntoBlockingCall()
	if kept.Count() != 1 {
		t.Fatalf("kept = %v", kept)
	}
	got := p2.Borrow()
	if got.Count() != 7 {
		t.Fatalf("borrowed = %v", got)
	}
	if p2.NumCPUs() != 15 {
		t.Errorf("p2 cpus = %d", p2.NumCPUs())
	}
	p1.OutOfBlockingCall()
	// p2 must give the CPUs back at its next LeWI poll (via PollDROM
	// when both modules are on; here call the module poll directly).
	mask, changed := p2.lewi.Poll()
	if !changed || !mask.Equal(CPURange(8, 15)) {
		t.Fatalf("after reclaim poll: %v changed=%v", mask, changed)
	}
}

func TestRequestResizeThroughProcess(t *testing.T) {
	node := NewNode("node0", 16)
	p, _ := Init(node, 1, CPURange(0, 7), "--drom")
	if err := p.RequestResize(12); err != nil {
		t.Fatal(err)
	}
	admin, _ := node.Internal().Attach()
	reqs, _ := admin.ResizeRequests()
	if len(reqs) != 1 || reqs[0].Want != 12 {
		t.Fatalf("requests = %+v", reqs)
	}
	p.Finalize()
	if err := p.RequestResize(4); !errors.Is(err, derr.ErrNotInit) {
		t.Errorf("RequestResize after Finalize = %v", err)
	}
}
