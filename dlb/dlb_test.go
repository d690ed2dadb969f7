package dlb_test

import (
	"errors"
	"testing"
	"time"

	"repro/dlb"
	"repro/drom"
	"repro/internal/derr"
)

func TestListing1Flow(t *testing.T) {
	// The manual integration of §4.4 / Listing 1.
	node := dlb.NewNode("node0", 16)
	p, err := dlb.Init(node, 0, node.AllCPUs(), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Finalize()

	if p.NumCPUs() != 16 {
		t.Fatalf("initial cpus = %d", p.NumCPUs())
	}
	// No update pending.
	if _, _, ok, err := p.PollDROM(); ok || err != nil {
		t.Fatalf("clean poll = ok=%v err=%v", ok, err)
	}

	// An administrator shrinks the process.
	admin, err := drom.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Detach()
	if err := admin.SetProcessMask(p.PID(), dlb.CPURange(0, 7), drom.None); err != nil {
		t.Fatal(err)
	}

	n, mask, ok, err := p.PollDROM()
	if err != nil || !ok || n != 8 {
		t.Fatalf("poll after set: n=%d ok=%v err=%v", n, ok, err)
	}
	if !mask.Equal(dlb.CPURange(0, 7)) {
		t.Fatalf("mask = %v", mask)
	}
}

func TestInitValidatesArgs(t *testing.T) {
	node := dlb.NewNode("node0", 8)
	if _, err := dlb.Init(node, 0, node.AllCPUs(), "--no-such-flag"); err == nil {
		t.Fatal("bad args should fail")
	}
}

func TestOnResizeCallbacks(t *testing.T) {
	node := dlb.NewNode("node0", 8)
	p, err := dlb.Init(node, 0, node.AllCPUs(), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Finalize()
	var gotN int
	var gotMask dlb.CPUSet
	p.OnResize(func(n int) { gotN = n }, func(m dlb.CPUSet) { gotMask = m })

	admin, _ := drom.Attach(node)
	admin.SetProcessMask(p.PID(), dlb.NewCPUSet(0, 2, 4), drom.None)
	p.PollDROM()
	if gotN != 3 || !gotMask.Equal(dlb.NewCPUSet(0, 2, 4)) {
		t.Fatalf("callbacks got %d / %v", gotN, gotMask)
	}
}

func TestLewiThroughPublicAPI(t *testing.T) {
	node := dlb.NewNode("node0", 8)
	p1, err := dlb.Init(node, 0, dlb.CPURange(0, 3), "--drom --lewi")
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Finalize()
	p2, err := dlb.Init(node, 0, dlb.CPURange(4, 7), "--drom --lewi")
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Finalize()

	kept := p1.IntoBlockingCall()
	if kept.Count() != 1 {
		t.Fatalf("kept = %v", kept)
	}
	got := p2.Borrow()
	if got.Count() != 3 {
		t.Fatalf("borrowed = %v", got)
	}
	p1.OutOfBlockingCall()
	// p2 returns the CPUs at its next poll.
	if _, _, ok, _ := p2.PollDROM(); !ok {
		t.Fatal("reclaim not observed at poll")
	}
	if p2.NumCPUs() != 4 {
		t.Fatalf("p2 cpus after reclaim = %d", p2.NumCPUs())
	}
}

func TestParseCPUSet(t *testing.T) {
	m, err := dlb.ParseCPUSet("0-3,8")
	if err != nil || m.Count() != 5 {
		t.Fatalf("ParseCPUSet = %v, %v", m, err)
	}
	if _, err := dlb.ParseCPUSet("zzz"); err == nil {
		t.Fatal("bad cpulist should fail")
	}
}

func TestRequestResizeAndStats(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	p, _ := dlb.Init(node, 0, dlb.CPURange(0, 7), "--drom")
	defer p.Finalize()
	admin, _ := drom.Attach(node)

	// The application asks for more CPUs (evolving model); the manager
	// grants via a normal mask change.
	if err := p.RequestResize(12); err != nil {
		t.Fatal(err)
	}
	if err := admin.SetProcessMask(p.PID(), dlb.CPURange(0, 11), drom.None); err != nil {
		t.Fatal(err)
	}
	p.PollDROM()
	if p.NumCPUs() != 12 {
		t.Fatalf("cpus = %d", p.NumCPUs())
	}

	// The manager consults the run-time statistics.
	st, err := admin.Stats(p.PID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Polls < 1 || st.MaskChanges != 1 || st.CPUsGained != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFinalizeTwice(t *testing.T) {
	node := dlb.NewNode("node0", 4)
	p, _ := dlb.Init(node, 0, node.AllCPUs(), "")
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := p.Finalize(); err == nil {
		t.Fatal("second Finalize should fail")
	}
}

func TestPollDROMDisabled(t *testing.T) {
	node := dlb.NewNode("node0", 8)
	p, _ := dlb.Init(node, 0, node.AllCPUs(), "")
	defer p.Finalize()
	if _, _, ok, err := p.PollDROM(); ok || !errors.Is(err, derr.ErrDisabled) {
		t.Errorf("PollDROM without --drom = ok=%v err=%v", ok, err)
	}
}

func TestAsyncModeAppliesWithoutPolling(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	p, _ := dlb.Init(node, 0, node.AllCPUs(), "--drom --mode=async")
	defer p.Finalize()
	// Buffered past the one expected call, so a stray one cannot block
	// the helper and hang Finalize.
	applied := make(chan int, 4)
	p.OnResize(func(n int) { applied <- n }, nil)

	admin, _ := drom.Attach(node)
	admin.SetProcessMask(p.PID(), dlb.CPURange(0, 7), drom.None)
	select {
	case n := <-applied:
		if n != 8 {
			t.Fatalf("async applied n = %d", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("async mode did not apply the mask")
	}
	if !p.Mask().Equal(dlb.CPURange(0, 7)) {
		t.Errorf("mask = %v", p.Mask())
	}
}

func TestAsyncFinalizeStopsHelper(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	p, _ := dlb.Init(node, 0, dlb.CPURange(0, 7), "--drom --mode=async")
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	// A mask staged after finalize must not be applied by a zombie
	// helper (the pid is unregistered, so Set fails anyway; this test
	// guards against the helper panicking or hanging).
	admin, _ := drom.Attach(node)
	if err := admin.SetProcessMask(p.PID(), dlb.CPURange(0, 3), drom.None); !errors.Is(err, derr.ErrNoProc) {
		t.Errorf("set after finalize = %v", err)
	}
}

func TestPreInitInheritedMask(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	running, _ := dlb.Init(node, 0, node.AllCPUs(), "--drom")
	defer running.Finalize()
	admin, _ := drom.Attach(node)
	childPID := node.AllocPID()
	if err := admin.PreInit(childPID, dlb.CPURange(8, 15), drom.Steal); err != nil {
		t.Fatal(err)
	}
	running.PollDROM()

	child, err := dlb.Init(node, childPID, node.AllCPUs(), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	defer child.Finalize()
	if !child.Mask().Equal(dlb.CPURange(8, 15)) {
		t.Errorf("child mask = %v, want reserved 8-15", child.Mask())
	}
	if !running.Mask().Equal(dlb.CPURange(0, 7)) {
		t.Errorf("victim mask = %v", running.Mask())
	}
}

func TestPollDROMHandlesLewiReclaim(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	p1, _ := dlb.Init(node, 0, dlb.CPURange(0, 7), "--drom --lewi")
	p2, _ := dlb.Init(node, 0, dlb.CPURange(8, 15), "--drom --lewi")
	defer p1.Finalize()
	defer p2.Finalize()

	p1.IntoBlockingCall()
	p2.Borrow()
	p1.OutOfBlockingCall()

	n, mask, ok, err := p2.PollDROM()
	if !ok || err != nil || n != 8 || !mask.Equal(dlb.CPURange(8, 15)) {
		t.Fatalf("PollDROM with pending reclaim = %d/%v/%v/%v", n, mask, ok, err)
	}
}

func TestLendWithoutLewiIsNoop(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	p, _ := dlb.Init(node, 0, dlb.CPURange(0, 7), "--drom")
	defer p.Finalize()
	p.Lend(dlb.CPURange(0, 3))
	if got := p.Borrow(); !got.IsEmpty() {
		t.Errorf("Borrow without LeWI = %v", got)
	}
	if p.NumCPUs() != 8 {
		t.Errorf("mask changed without LeWI: %d", p.NumCPUs())
	}
	if kept := p.IntoBlockingCall(); kept.Count() != 8 {
		t.Errorf("blocking without LeWI changed mask: %v", kept)
	}
}

func TestDROMShrinkUpdatesLewiOwnership(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	p1, _ := dlb.Init(node, 0, node.AllCPUs(), "--drom --lewi")
	defer p1.Finalize()
	admin, _ := drom.Attach(node)
	admin.SetProcessMask(p1.PID(), dlb.CPURange(0, 7), drom.None)
	p1.PollDROM()
	// CPUs 8-15 must be claimable by a new process: ownership released.
	p2, err := dlb.Init(node, 0, dlb.CPURange(8, 15), "--lewi")
	if err != nil {
		t.Fatalf("new process could not claim freed CPUs: %v", err)
	}
	p2.Finalize()
}

// TestLewiReclaimHonouredWithoutDROM: a LeWI reclaim reaches the
// borrower at its poll point whether or not it also runs DROM, in
// either receiver mode. p1 blocks and lends 1–3, p2 borrows them, and
// once p1 leaves its blocking call p2's poll gives them back: p2 runs
// on its own 4–7 again.
func TestLewiReclaimHonouredWithoutDROM(t *testing.T) {
	for _, args := range []string{"--lewi", "--lewi --mode=async", "--drom --lewi", "--drom --lewi --mode=async"} {
		node := dlb.NewNode("node0", 8)
		p1, _ := dlb.Init(node, 0, dlb.CPURange(0, 3), args)
		p2, _ := dlb.Init(node, 0, dlb.CPURange(4, 7), args)
		p1.IntoBlockingCall()
		if got := p2.Borrow(); !got.Equal(dlb.CPURange(1, 3)) {
			t.Errorf("%s: p2 borrowed %v, want 1-3", args, got)
		}
		p1.OutOfBlockingCall()
		n, mask, ok, err := p2.PollDROM()
		if !ok || err != nil || n != 4 || !mask.Equal(dlb.CPURange(4, 7)) || !p2.Mask().Equal(dlb.CPURange(4, 7)) {
			t.Errorf("%s: p2's poll after the reclaim = %d/%v/%v/%v, mask %v; want 4-7", args, n, mask, ok, err, p2.Mask())
		}
		p2.Finalize()
		p1.Finalize()
	}
}
