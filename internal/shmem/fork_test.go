package shmem

// Per-backend Fork semantics: in-memory deep-clones, file-backed forks
// to a private in-memory copy, fault-injecting forwards to the inner
// fork and continues the fault stream. The registry-level fork/replay
// differential guarantees are exercised end to end by PR 9's suite in
// internal/slurm and internal/workload; these tests pin the backend
// contracts directly.

import (
	"reflect"
	"testing"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

func TestForkMemDeepClones(t *testing.T) {
	r := NewRegistry()
	s := r.MustOpen("n", cpuset.Range(0, 15), 0)
	s.Register(1, cpuset.Range(0, 7))
	s.ClaimCPUs(1, cpuset.Range(0, 7))
	gen := tables(s).Generation()

	f := r.Fork()
	fs := f.Get("n")
	if fs == nil {
		t.Fatal("fork lost segment")
	}
	if tables(fs).Generation() != gen {
		t.Fatalf("fork generation = %d, want %d", tables(fs).Generation(), gen)
	}
	// Divergence is two-way isolated.
	fs.SetFuture(1, cpuset.Range(0, 3))
	if e, _ := s.Lookup(1); e.Dirty {
		t.Fatal("parent saw child's staged mask")
	}
	s.Register(2, cpuset.Range(8, 15))
	if _, code := fs.Lookup(2); code != derr.ErrNoProc {
		t.Fatal("child saw parent's new registration")
	}
	// PID allocation continues without collision in both lines.
	if p, fp := r.AllocPID(), f.AllocPID(); p != fp {
		t.Fatalf("fork PID sequences diverged at first draw: %d vs %d", p, fp)
	}
}

func TestForkFileYieldsPrivateMemCopy(t *testing.T) {
	dir := t.TempDir()
	fb := newFileBackend(t, dir)
	r := NewRegistryWith(fb)
	s, err := r.Open("n", cpuset.Range(0, 15), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, cpuset.Range(0, 7))
	fb.AllocPID() // seed the shared counter file

	f := r.Fork()
	if kind := f.Kind(); kind != "mem" {
		t.Fatalf("file fork backend kind = %q, want mem", kind)
	}
	fs := f.Get("n")
	if fs == nil {
		t.Fatal("fork lost segment")
	}
	if e, code := fs.Lookup(1); code != derr.Success || !e.CurrentMask.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("forked entry = %+v/%v", e, code)
	}
	// Mutating the fork must not touch the live file.
	fs.SetFuture(1, cpuset.Range(0, 3))
	fs.Register(2, cpuset.Range(8, 15))
	if e, _ := s.Lookup(1); e.Dirty {
		t.Fatal("file segment saw fork's staged mask")
	}
	if n := s.NumProcs(); n != 1 {
		t.Fatalf("file segment procs = %d after fork mutation", n)
	}
	// And the fork continues the shared PID sequence.
	if p := f.AllocPID(); p <= 1000 {
		t.Fatalf("fork AllocPID = %d", p)
	}
}

func TestForkFaultReseedsDeterministically(t *testing.T) {
	mk := func() *Registry {
		fb := NewFaultBackend(NewMemBackend(), FaultConfig{Seed: 7, WriteFailRate: 0.5})
		r := NewRegistryWith(fb)
		s := r.MustOpen("n", cpuset.Range(0, 15), 0)
		s.Register(1, cpuset.Range(0, 7))
		// Burn a fixed number of fault draws.
		for i := 0; i < 10; i++ {
			s.SetFuture(1, cpuset.Range(0, 3))
		}
		return r
	}
	drive := func(r *Registry) []derr.Code {
		s := r.Get("n")
		out := make([]derr.Code, 0, 16)
		for i := 0; i < 16; i++ {
			out = append(out, s.SetFuture(1, cpuset.Range(0, 7)))
		}
		return out
	}
	// The fork continues the parent's fault stream: its next 16 codes
	// are the parent's next 16.
	p := mk()
	f := p.Fork()
	if kf := f.Kind(); kf != "fault+mem" {
		t.Fatalf("fault fork kind = %q", kf)
	}
	cf, cp := drive(f), drive(p)
	for i := range cf {
		if cf[i] != cp[i] {
			t.Fatalf("fork fault stream diverges from the parent's at op %d: %v vs %v", i, cf[i], cp[i])
		}
	}
	// The stream must include real faults (rate 0.5 over 16 ops failing
	// to fault even once would be a re-seed bug).
	saw := false
	for _, c := range cf {
		if c == derr.ErrNoShmem {
			saw = true
		}
	}
	if !saw {
		t.Fatal("forked fault backend never injected a fault")
	}
	// Forking, and drawing from the fork, does not perturb the parent's
	// own fault stream.
	if ref := drive(mk()); !reflect.DeepEqual(cp, ref) {
		t.Fatalf("parent stream perturbed by fork:\n got  %v\n want %v", cp, ref)
	}
	if fc, pc := f.Backend.(*FaultBackend).Counts(), p.Backend.(*FaultBackend).Counts(); fc != pc {
		t.Fatalf("fork fault counts %+v, parent %+v", fc, pc)
	}
}

// TestSlotReuseIsInvisibleAndUnforked: a slot Unregister emptied serves
// the next registration looking exactly like a fresh one — no mask,
// flag, counter or theft of the process it held before — the free
// slots are bounded by the peak of live processes, and a fork starts
// with none, so the two lineages can never fill the same slot.
func TestSlotReuseIsInvisibleAndUnforked(t *testing.T) {
	s := NewRegistry().MustOpen("node0", cpuset.Range(0, 15), 0).(*MemSegment)
	fresh := NewRegistry().MustOpen("node0", cpuset.Range(0, 15), 0).(*MemSegment)

	// A process with every field set, then gone.
	if c := s.RegisterPreInit(1, cpuset.Range(0, 7), []Theft{{Victim: 9, Mask: cpuset.Range(0, 3)}}); c.IsError() {
		t.Fatal(c)
	}
	s.Register(1, cpuset.Range(0, 7))
	s.SetFuture(1, cpuset.Range(0, 3))
	s.ApplyFuture(1)
	s.SetResizeRequest(1, 5)
	s.Unregister(1)
	if len(s.freeProcs) != 1 {
		t.Fatalf("%d free slots after one Unregister, want 1", len(s.freeProcs))
	}
	slot := s.freeProcs[0]

	for _, seg := range []*MemSegment{s, fresh} {
		if c := seg.RegisterPreInit(2, cpuset.Range(8, 15), nil); c.IsError() {
			t.Fatal(c)
		}
		if c := seg.Register(3, cpuset.Range(0, 3)); c.IsError() {
			t.Fatal(c)
		}
	}
	if s.procs[2] != slot || len(s.freeProcs) != 0 {
		t.Error("the freed slot was not reused by the next registration")
	}
	if got, want := s.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("entries in reused slots\n %+v\nentries in fresh slots\n %+v", got, want)
	}

	s.Unregister(2)
	f := s.forkMem()
	if len(f.freeProcs) != 0 {
		t.Errorf("fork starts with %d free slots, want 0", len(f.freeProcs))
	}
	f.RegisterPreInit(4, cpuset.Range(8, 15), nil)
	s.RegisterPreInit(4, cpuset.Range(8, 11), nil)
	if f.procs[4] == s.procs[4] {
		t.Error("fork and parent registered into the same slot")
	}
	if e, _ := f.Lookup(4); !e.CurrentMask.Equal(cpuset.Range(8, 15)) {
		t.Errorf("fork's entry reads %s after the parent registered the same pid", e.CurrentMask)
	}
}
