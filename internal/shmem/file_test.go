package shmem

// File-backend specifics: persistence across backends, the two-backend
// (cross-process-equivalent) DROM exchange — flock is per open file
// description, so two FileBackends in one process synchronize exactly
// like two processes do — corruption handling, and the layout codec.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

func newFileBackend(t *testing.T, dir string) *FileBackend {
	t.Helper()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestFileSegmentPersistsAcrossBackends(t *testing.T) {
	dir := t.TempDir()
	b1 := newFileBackend(t, dir)
	s1, err := b1.Open("node0", cpuset.Range(0, 15), 0)
	if err != nil {
		t.Fatal(err)
	}
	s1.Register(42, cpuset.Range(0, 7))
	s1.SetResizeRequest(42, 12)
	b1.Close()

	b2 := newFileBackend(t, dir)
	s2 := b2.Get("node0")
	if s2 == nil {
		t.Fatal("segment lost across backend instances")
	}
	if !s2.NodeCPUs().Equal(cpuset.Range(0, 15)) {
		t.Fatalf("restored shape = %v", s2.NodeCPUs())
	}
	e, code := s2.Lookup(42)
	if code != derr.Success || !e.CurrentMask.Equal(cpuset.Range(0, 7)) || e.ResizeRequest != 12 {
		t.Fatalf("restored entry = %+v/%v", e, code)
	}
}

// TestFileTwoBackendsDROMExchange runs the full DROM
// register -> SetFuture -> poll protocol between two independent
// backends on one directory: the in-process equivalent of the CI
// cross-process smoke test (slurmsim + dromctl -backend file:...).
func TestFileTwoBackendsDROMExchange(t *testing.T) {
	dir := t.TempDir()
	app := newFileBackend(t, dir)   // the application process
	admin := newFileBackend(t, dir) // the controller process

	appSeg, err := app.Open("node0", cpuset.Range(0, 15), 0)
	if err != nil {
		t.Fatal(err)
	}
	pid := app.AllocPID()
	if code := appSeg.Register(pid, cpuset.Range(0, 7)); code != derr.Success {
		t.Fatalf("Register = %v", code)
	}

	adminSeg := admin.Get("node0")
	if adminSeg == nil {
		t.Fatal("admin cannot see segment")
	}
	if pids := adminSeg.PIDList(); len(pids) != 1 || pids[0] != pid {
		t.Fatalf("admin PIDList = %v", pids)
	}
	gen0 := tables(adminSeg).Generation()
	if code := adminSeg.SetFuture(pid, cpuset.Range(0, 3)); code != derr.Success {
		t.Fatalf("admin SetFuture = %v", code)
	}
	if gen := tables(adminSeg).Generation(); gen <= gen0 {
		t.Fatalf("generation %d -> %d after staging", gen0, gen)
	}

	// The app polls and observes the staged mask.
	mask, code := appSeg.ApplyFuture(pid)
	if code != derr.Success || !mask.Equal(cpuset.Range(0, 3)) {
		t.Fatalf("app ApplyFuture = %v/%v", mask, code)
	}
	// The admin's synchronous wait sees the application.
	if code := adminSeg.WaitClean(pid, nil); code != derr.Success {
		t.Fatalf("admin WaitClean = %v", code)
	}
	if st, ok := adminSeg.StatsOf(pid); !ok || st.MaskChanges != 1 {
		t.Fatalf("admin stats = %+v/%v", st, ok)
	}

	// Watch on one backend sees writes from the other (via polling).
	ch := appSeg.Watch(pid)
	if code := adminSeg.SetFuture(pid, cpuset.Range(0, 1)); code != derr.Success {
		t.Fatalf("second SetFuture = %v", code)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never saw the other backend's write")
	}
	appSeg.Unwatch(pid, ch)

	// PID allocation is shared through the counter file.
	if p2 := admin.AllocPID(); p2 <= pid {
		t.Fatalf("cross-backend AllocPID = %d after %d", p2, pid)
	}
}

func TestFileBackendRejectsBadNames(t *testing.T) {
	b := newFileBackend(t, t.TempDir())
	for _, name := range []string{"", "a/b", "../up", ".hidden", "nul\x00"} {
		if _, err := b.Open(name, cpuset.Range(0, 3), 0); err == nil {
			t.Errorf("Open(%q) accepted", name)
		}
	}
}

func TestFileCorruptSegmentReportsNoShmem(t *testing.T) {
	dir := t.TempDir()
	b := newFileBackend(t, dir)
	s, err := b.Open("node0", cpuset.Range(0, 15), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, cpuset.Range(0, 7))
	if err := os.WriteFile(filepath.Join(dir, "node0.seg"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := s.SetFuture(1, cpuset.Range(0, 3)); code != derr.ErrNoShmem {
		t.Fatalf("SetFuture on corrupt file = %v", code)
	}
	if _, code := s.Lookup(1); code != derr.ErrNoShmem {
		t.Fatalf("Lookup on corrupt file = %v", code)
	}
	// A fresh backend refuses to adopt the corrupt file.
	nb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	if _, err := nb.Open("node0", cpuset.Range(0, 15), 0); err == nil {
		t.Fatal("Open adopted a corrupt segment file")
	}
}

func TestSegLayoutRoundTrip(t *testing.T) {
	m := newSegment("node0", cpuset.Range(0, 15), 24)
	m.Register(11, cpuset.Range(0, 7))
	m.Register(12, cpuset.Range(8, 15))
	m.ClaimCPUs(11, cpuset.Range(0, 7))
	m.LendCPUs(11, cpuset.Range(4, 7))
	m.BorrowCPUs(12, 2)
	m.SetFuture(11, cpuset.Range(0, 3))
	m.SetResizeRequest(12, 6)
	m.SetStolen(12, []Theft{{Victim: 11, Mask: cpuset.Range(6, 7)}})
	m.ApplyFuture(12)
	m.CreditPolls(12, 1<<40)

	enc := encodeSegment(m)
	dec, err := decodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.name != m.name || !dec.nodeCPUs.Equal(m.nodeCPUs) ||
		dec.maxProcs != m.maxProcs || dec.generation != m.generation {
		t.Fatalf("header mismatch: %s/%v/%d/%d", dec.name, dec.nodeCPUs, dec.maxProcs, dec.generation)
	}
	// Re-encoding the decoded state is byte-identical: the sorted-PID
	// encoder makes equal states equal bytes.
	if enc2 := encodeSegment(dec); !bytes.Equal(enc, enc2) {
		t.Fatal("encode(decode(x)) != x")
	}
	for _, pid := range []PID{11, 12} {
		want, _ := m.Lookup(pid)
		got, code := dec.Lookup(pid)
		if code != derr.Success {
			t.Fatalf("pid %d missing after round trip", pid)
		}
		if !got.CurrentMask.Equal(want.CurrentMask) || got.Dirty != want.Dirty ||
			got.ResizeRequest != want.ResizeRequest || len(got.Stolen) != len(want.Stolen) ||
			got.Stats != want.Stats {
			t.Fatalf("pid %d: got %+v want %+v", pid, got, want)
		}
	}
	if st, _ := dec.StatsOf(12); st.Polls != 1<<40+1 {
		t.Fatalf("pid 12 polls after round trip = %d", st.Polls)
	}
	for c := 0; c < 16; c++ {
		if dec.cpus[c].owner != m.cpus[c].owner || dec.cpus[c].guest != m.cpus[c].guest {
			t.Fatalf("cpu %d owner/guest mismatch", c)
		}
	}
}

func TestSegLayoutRejects(t *testing.T) {
	good := encodeSegment(newSegment("n", cpuset.Range(0, 3), 4))
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:10],
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 0),
		"badmagic":  append([]byte("XXXXXXXX"), good[8:]...),
	}
	// Wrong version.
	bad := append([]byte{}, good...)
	bad[8+3] = 9 // version field, little-endian
	cases["badversion"] = bad
	// State for a CPU outside the node: past its highest CPU (4, and
	// 255, the last slot), and in a hole of a non-contiguous node (2).
	// The cpuinfo table closes the file, 17 bytes a slot: owner int64,
	// guest int64, flags.
	slot := func(enc []byte, c int) []byte {
		return enc[len(enc)-(cpuset.MaxCPUs-c)*17:]
	}
	for _, c := range []int{4, 255} {
		bad := append([]byte{}, good...)
		slot(bad, c)[0] = 1 // owner pid 1
		cases[fmt.Sprintf("cpu%d-past-node", c)] = bad
	}
	lent := append([]byte{}, good...)
	slot(lent, 4)[16] = segFlagLent
	cases["cpu4-past-node-flag"] = lent
	holes := encodeSegment(newSegment("n", cpuset.New(0, 1, 3), 4))
	slot(holes, 2)[8] = 1 // guest pid 1
	cases["cpu2-hole"] = holes
	for name, data := range cases {
		_, err := decodeSegment(data)
		switch {
		case err == nil:
			t.Errorf("%s: decode accepted", name)
		case strings.HasPrefix(name, "cpu") && !strings.Contains(err.Error(), "cpu "+strings.TrimPrefix(strings.Split(name, "-")[0], "cpu")+" is outside the node"):
			t.Errorf("%s: error %q does not name the CPU", name, err)
		}
	}
	// The same slot inside the node is state like any other.
	ok := append([]byte{}, good...)
	slot(ok, 3)[0] = 1
	if _, err := decodeSegment(ok); err != nil {
		t.Errorf("owned CPU 3 of node 0-3 refused: %v", err)
	}
}
