package hwmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpuset"
)

func TestMN3Preset(t *testing.T) {
	m := MN3()
	if m.CoresPerNode() != 16 {
		t.Errorf("MN3 cores/node = %d, want 16", m.CoresPerNode())
	}
	if m.SocketsPerNode != 2 || m.CoresPerSocket != 8 {
		t.Errorf("MN3 topology = %d×%d", m.SocketsPerNode, m.CoresPerSocket)
	}
	if !m.NodeMask().Equal(cpuset.Range(0, 15)) {
		t.Errorf("NodeMask = %v", m.NodeMask())
	}
	if m.CyclesPerMicrosecond() != 2600 {
		t.Errorf("cycles/µs = %v", m.CyclesPerMicrosecond())
	}
}

func TestSocketMask(t *testing.T) {
	m := MN3()
	if !m.SocketMask(0).Equal(cpuset.Range(0, 7)) {
		t.Errorf("socket 0 = %v", m.SocketMask(0))
	}
	if !m.SocketMask(1).Equal(cpuset.Range(8, 15)) {
		t.Errorf("socket 1 = %v", m.SocketMask(1))
	}
	if m.SocketOf(3) != 0 || m.SocketOf(8) != 1 {
		t.Error("SocketOf wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("SocketMask(2) should panic")
		}
	}()
	m.SocketMask(2)
}

func TestIPCModel(t *testing.T) {
	// At the reference thread count the IPC equals the base.
	if got := IPC(1.0, 0.4, 16, 16); got != 1.0 {
		t.Errorf("IPC at ref = %v", got)
	}
	// Fewer threads → higher IPC (locality gain).
	half := IPC(1.0, 0.4, 8, 16)
	if half <= 1.0 {
		t.Errorf("IPC at half threads = %v, want > 1", half)
	}
	if math.Abs(half-1.2) > 1e-9 {
		t.Errorf("IPC(8/16, alpha=0.4) = %v, want 1.2", half)
	}
	// More threads than reference → lower IPC.
	if got := IPC(1.0, 0.4, 32, 16); got >= 1.0 {
		t.Errorf("IPC above ref = %v, want < 1", got)
	}
	// Clamped at 0.1*base.
	if got := IPC(1.0, 100, 32, 16); got != 0.1 {
		t.Errorf("clamped IPC = %v", got)
	}
	// Zero refThreads: passthrough.
	if got := IPC(1.3, 0.4, 8, 0); got != 1.3 {
		t.Errorf("ref=0 IPC = %v", got)
	}
}

func TestBWSlowdown(t *testing.T) {
	if got := BWSlowdown(20, 41); got != 1 {
		t.Errorf("under capacity = %v", got)
	}
	if got := BWSlowdown(82, 41); got != 2 {
		t.Errorf("2x oversubscribed = %v", got)
	}
	if got := BWSlowdown(10, 0); got != 1 {
		t.Errorf("zero capacity = %v", got)
	}
}

func TestSocketAwarePickPrefersEmptySocket(t *testing.T) {
	m := MN3()
	// Socket 0 has 4 free CPUs, socket 1 fully free: a 8-CPU request
	// should land entirely on socket 1.
	avail := cpuset.Range(4, 15)
	got := m.SocketAwarePick(avail, 8)
	if !got.Equal(cpuset.Range(8, 15)) {
		t.Errorf("pick = %v, want socket 1 (8-15)", got)
	}
}

func TestSocketAwarePickSpills(t *testing.T) {
	m := MN3()
	got := m.SocketAwarePick(m.NodeMask(), 12)
	if got.Count() != 12 {
		t.Fatalf("picked %d CPUs", got.Count())
	}
	// One full socket plus part of the other.
	s0 := got.And(m.SocketMask(0)).Count()
	s1 := got.And(m.SocketMask(1)).Count()
	if s0 != 8 && s1 != 8 {
		t.Errorf("no full socket in pick: %d/%d", s0, s1)
	}
}

func TestSocketAwarePickShortage(t *testing.T) {
	m := MN3()
	avail := cpuset.New(1, 9)
	got := m.SocketAwarePick(avail, 5)
	if !got.Equal(avail) {
		t.Errorf("pick under shortage = %v, want everything available", got)
	}
	if !m.SocketAwarePick(avail, 0).IsEmpty() {
		t.Error("pick of 0 should be empty")
	}
}

func TestPropertySocketAwarePick(t *testing.T) {
	m := MN3()
	f := func(availBits uint16, nRaw uint8) bool {
		var avail cpuset.CPUSet
		for i := 0; i < 16; i++ {
			if availBits&(1<<i) != 0 {
				avail.Set(i)
			}
		}
		n := int(nRaw) % 20
		got := m.SocketAwarePick(avail, n)
		// Result is a subset of available, sized min(n, |avail|).
		if !got.IsSubsetOf(avail) {
			return false
		}
		want := n
		if avail.Count() < n {
			want = avail.Count()
		}
		return got.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
