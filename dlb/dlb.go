// Package dlb is the public application-side API of the DLB library
// reproduction: what a process links against to become malleable
// (§3.1, §4.4 and Listing 1 of the paper). A Process is the one
// per-process handle, from Init to Finalize: it ties the node's DROM
// module, the optional LeWI module and the resize callbacks together,
// and the §4 runtime integrations take it as it is.
//
// A process observes DROM updates in one of two receiver modes, chosen
// in the DLB_ARGS string given to Init. In polling mode (the default)
// a staged mask is applied only at PollDROM, which the application or
// an interception hook calls at its safe points. In async mode
// ("--mode=async") a helper goroutine, woken by the shared segment,
// applies each mask as soon as an administrator stages it; the
// callbacks registered with OnResize fire from that goroutine, and
// PollDROM finds nothing pending.
//
// The typical manual integration mirrors Listing 1:
//
//	node := dlb.NewNode("node0", 16)
//	p, _ := dlb.Init(node, 0, node.AllCPUs(), "--drom")
//	defer p.Finalize()
//	for i := 0; i < iters; i++ {
//		if n, mask, ok, _ := p.PollDROM(); ok {
//			adjustResources(n, mask)
//		}
//		parallelWork()
//	}
//
// Finalize unregisters the process. A second Finalize reports
// DLB_ERR_NOINIT, as do PollDROM and RequestResize after the first.
//
// Administrators (resource managers, tools) use the companion package
// repro/drom to change masks from the outside.
package dlb

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/lewi"
	"repro/internal/shmem"
)

// CPUSet is the process-mask type of the whole API: a bitset of
// virtual CPUs, the analogue of cpu_set_t.
type CPUSet = cpuset.CPUSet

// NewCPUSet returns a set containing the given CPUs.
func NewCPUSet(cpus ...int) CPUSet { return cpuset.New(cpus...) }

// CPURange returns the set {lo..hi}.
func CPURange(lo, hi int) CPUSet { return cpuset.Range(lo, hi) }

// ParseCPUSet parses a Linux cpulist string such as "0-7,16".
func ParseCPUSet(s string) (CPUSet, error) { return cpuset.Parse(s) }

// PID identifies a virtual process within a node.
type PID = shmem.PID

// Node is one node's DLB environment: the shared-memory segment every
// process and administrator of the node attaches to.
type Node struct {
	name string
	reg  *shmem.Registry
	sys  *core.System
}

// NewNode creates a node with ncpus CPUs (an isolated shared-memory
// namespace).
func NewNode(name string, ncpus int) *Node {
	if ncpus < 1 || ncpus > cpuset.MaxCPUs {
		panic(fmt.Sprintf("dlb: invalid cpu count %d", ncpus))
	}
	n, err := NewNodeReg(name, ncpus, shmem.NewRegistry())
	if err != nil {
		panic(err) // in-memory Open cannot fail
	}
	return n
}

// NewNodeReg creates — or, for a segment another process already
// created, adopts — a node on an explicit shmem registry. With a
// file-backed registry this is how two real OS processes share one
// DROM segment: each builds its own Node over the same directory and
// the flock-protected segment file coordinates them.
func NewNodeReg(name string, ncpus int, reg *shmem.Registry) (*Node, error) {
	if ncpus < 1 || ncpus > cpuset.MaxCPUs {
		return nil, fmt.Errorf("dlb: invalid cpu count %d", ncpus)
	}
	seg, err := reg.Open(name, cpuset.Range(0, ncpus-1), 0)
	if err != nil {
		return nil, err
	}
	return &Node{name: name, reg: reg, sys: core.NewSystem(seg)}, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// AllCPUs returns the node's full CPU set.
func (n *Node) AllCPUs() CPUSet { return n.sys.NodeCPUs() }

// AllocPID returns a fresh virtual PID on this node.
func (n *Node) AllocPID() PID { return n.reg.AllocPID() }

// Internal exposes the underlying DROM system for the repro/drom
// administrator package and for tests. Applications do not need it.
func (n *Node) Internal() *core.System { return n.sys }

// Process is an application's DLB handle (DLB_Init..DLB_Finalize).
type Process struct {
	sys  *core.System
	pid  PID
	drom bool
	lewi *lewi.Module

	mu            sync.Mutex
	mask          CPUSet
	setNumThreads func(int)
	setMask       func(CPUSet)
	finalized     bool

	asyncStop chan struct{}
	asyncDone chan struct{}
}

// options is a parsed DLB_ARGS string.
type options struct {
	drom, lewi, async bool
	lewiPolicy        lewi.Policy
	maxBorrow         int
}

// parseArgs parses a DLB_ARGS-style option string, e.g.
// "--drom --lewi --mode=async --lewi-keep-one-cpu --max-borrow=4".
// Unknown options produce an error, like DLB's strict parser.
func parseArgs(args string) (options, error) {
	opts := options{maxBorrow: -1, lewiPolicy: lewi.LendAllButOne}
	for _, tok := range strings.Fields(args) {
		switch {
		case tok == "--drom":
			opts.drom = true
		case tok == "--no-drom":
			opts.drom = false
		case tok == "--lewi":
			opts.lewi = true
		case tok == "--no-lewi":
			opts.lewi = false
		case tok == "--mode=polling":
			opts.async = false
		case tok == "--mode=async":
			opts.async = true
		case tok == "--lewi-keep-one-cpu":
			opts.lewiPolicy = lewi.LendAllButOne
		case tok == "--lewi-lend-all":
			opts.lewiPolicy = lewi.LendAll
		case strings.HasPrefix(tok, "--max-borrow="):
			var n int
			if _, err := fmt.Sscanf(tok, "--max-borrow=%d", &n); err != nil {
				return opts, fmt.Errorf("dlb: bad option %q: %v", tok, err)
			}
			opts.maxBorrow = n
		default:
			return opts, fmt.Errorf("dlb: unknown option %q", tok)
		}
	}
	return opts, nil
}

// Init registers the calling "process" with the node's DLB system.
// pid <= 0 allocates a fresh virtual PID. args is a DLB_ARGS-style
// option string, e.g. "--drom", "--drom --lewi", "--drom --mode=async".
// If a resource manager pre-initialized this PID via DROM_PreInit, the
// reserved mask overrides the supplied one.
func Init(n *Node, pid PID, mask CPUSet, args string) (*Process, error) {
	opts, err := parseArgs(args)
	if err != nil {
		return nil, err
	}
	if pid <= 0 {
		pid = n.AllocPID()
	}
	got, code := n.sys.Register(pid, mask)
	if code.IsError() {
		return nil, code
	}
	p := &Process{sys: n.sys, pid: pid, drom: opts.drom, mask: got}
	if opts.lewi {
		m, code := lewi.New(n.sys.Segment(), pid, got, opts.lewiPolicy)
		if code.IsError() {
			n.sys.Unregister(pid)
			return nil, code
		}
		m.SetMaxBorrow(opts.maxBorrow)
		p.lewi = m
	}
	if opts.drom && opts.async {
		p.startAsync()
	}
	return p, nil
}

// PID returns the process's virtual PID.
func (p *Process) PID() PID { return p.pid }

// Mask returns the process's current CPU mask.
func (p *Process) Mask() CPUSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mask
}

// NumCPUs returns the current mask size.
func (p *Process) NumCPUs() int { return p.Mask().Count() }

// PollDROM is DLB_PollDROM (Listing 1): with "--drom" it applies a
// pending mask change if one exists. With "--lewi", with or without
// "--drom", it then does what DLB_Return does: it gives back the
// borrowed CPUs their owners reclaimed. ok reports whether an update
// was applied; on ok the new CPU count and mask are returned and
// callbacks have fired. With neither option it reports
// DLB_ERR_DISBLD.
func (p *Process) PollDROM() (ncpus int, mask CPUSet, ok bool, err error) {
	if p.isFinalized() {
		return 0, CPUSet{}, false, derr.ErrNotInit
	}
	if !p.drom && p.lewi == nil {
		return 0, CPUSet{}, false, derr.ErrDisabled
	}
	code := derr.NoUpdate
	if p.drom {
		if mask, code = p.sys.Poll(p.pid); code == derr.Success {
			p.applyOwnedMask(mask)
			return mask.Count(), mask, true, nil
		}
	}
	if p.lewi != nil {
		if m, changed := p.lewi.Poll(); changed {
			p.applyMask(m)
			return m.Count(), m, true, nil
		}
	}
	return 0, CPUSet{}, false, code.Err()
}

// OnResize registers the callbacks fired whenever the process's
// resources change (the programming-model integration surface of §4):
// setNumThreads with the new CPU count, then setMask with the new mask
// for re-pinning. Either may be nil; a later call replaces both.
func (p *Process) OnResize(setNumThreads func(int), setMask func(CPUSet)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setNumThreads, p.setMask = setNumThreads, setMask
}

// applyOwnedMask handles a DROM ownership change: LeWI ownership moves
// with the mask (removed CPUs are released, added ones claimed) and
// the callbacks fire.
func (p *Process) applyOwnedMask(mask CPUSet) {
	if p.lewi != nil {
		p.lewi.SetOwned(mask)
	}
	p.applyMask(mask)
}

// applyMask records the new running mask and fires the callbacks
// outside the lock. It does not touch LeWI ownership: lend/borrow
// transitions change the running mask only.
func (p *Process) applyMask(mask CPUSet) {
	p.mu.Lock()
	p.mask = mask
	setNumThreads, setMask := p.setNumThreads, p.setMask
	p.mu.Unlock()
	if setNumThreads != nil {
		setNumThreads(mask.Count())
	}
	if setMask != nil {
		setMask(mask)
	}
}

// IntoBlockingCall marks the process blocked (the PMPI pre-hook):
// with LeWI enabled its CPUs are lent to the node pool. Returns the
// mask kept.
func (p *Process) IntoBlockingCall() CPUSet {
	if p.lewi == nil {
		return p.Mask()
	}
	m := p.lewi.EnterBlocking()
	p.applyMask(m)
	return m
}

// OutOfBlockingCall reclaims the process's CPUs after a blocking call.
func (p *Process) OutOfBlockingCall() CPUSet {
	if p.lewi == nil {
		return p.Mask()
	}
	m, _ := p.lewi.ExitBlocking()
	p.applyMask(m)
	return m
}

// Borrow asks LeWI for idle CPUs; returns what was acquired.
func (p *Process) Borrow() CPUSet {
	if p.lewi == nil {
		return CPUSet{}
	}
	got := p.lewi.Borrow()
	if !got.IsEmpty() {
		p.applyMask(p.lewi.Mask())
	}
	return got
}

// Lend voluntarily lends CPUs to the node pool.
func (p *Process) Lend(mask CPUSet) {
	if p.lewi == nil {
		return
	}
	p.lewi.Lend(mask)
	p.applyMask(p.lewi.Mask())
}

// RequestResize posts an evolving-application request for n CPUs (the
// PMIx-style model of §2: the application, not the manager, asks).
// The resource manager may grant it via a normal DROM mask change,
// observed at the next poll. n <= 0 withdraws the request.
func (p *Process) RequestResize(n int) error {
	if p.isFinalized() {
		return derr.ErrNotInit
	}
	return p.sys.RequestResize(p.pid, n).Err()
}

// Finalize unregisters the process (DLB_Finalize), stopping the async
// helper and releasing LeWI state first. A second call reports
// DLB_ERR_NOINIT.
func (p *Process) Finalize() error {
	p.mu.Lock()
	if p.finalized {
		p.mu.Unlock()
		return derr.ErrNotInit
	}
	p.finalized = true
	p.mu.Unlock()
	if p.asyncStop != nil {
		close(p.asyncStop)
		<-p.asyncDone
	}
	if p.lewi != nil {
		p.lewi.Finalize()
	}
	return p.sys.Unregister(p.pid).Err()
}

func (p *Process) isFinalized() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finalized
}

// startAsync runs the async receiver: a helper goroutine woken by the
// segment's notification for this PID applies each staged mask as soon
// as an administrator writes it, and fires the callbacks from there.
func (p *Process) startAsync() {
	p.asyncStop = make(chan struct{})
	p.asyncDone = make(chan struct{})
	seg := p.sys.Segment()
	watch := seg.Watch(p.pid)
	go func() {
		defer close(p.asyncDone)
		defer seg.Unwatch(p.pid, watch)
		for {
			select {
			case <-p.asyncStop:
				return
			case <-watch:
				if mask, code := p.sys.Poll(p.pid); code == derr.Success {
					p.applyOwnedMask(mask)
				}
			}
		}
	}()
}
