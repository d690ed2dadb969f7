package apps

import (
	"math"
	"repro/internal/hwmodel"
	"testing"
	"testing/quick"
)

func env(threads, chunks int, slow float64) RankEnv {
	return RankEnv{Threads: threads, Chunks: chunks, BWSlowdown: slow}
}

func TestTable1Configs(t *testing.T) {
	if got := Table1("nest"); len(got) != 2 || got[0] != (Config{2, 16}) || got[1] != (Config{4, 8}) {
		t.Errorf("nest configs = %v", got)
	}
	if got := Table1("pils"); len(got) != 3 || got[1] != (Config{2, 1}) {
		t.Errorf("pils configs = %v", got)
	}
	if got := Table1("stream"); len(got) != 1 || got[0] != (Config{2, 2}) {
		t.Errorf("stream configs = %v", got)
	}
	if Table1("bogus") != nil {
		t.Error("unknown app should yield nil")
	}
	if (Config{4, 8}).String() != "4x8" {
		t.Error("Config helpers wrong")
	}
}

func TestSimulatorImbalance(t *testing.T) {
	n := NEST()
	// Full partition: one chunk per thread.
	base := n.IterTime(env(16, 16, 1))
	if math.Abs(base-n.ChunkSeconds-0) > n.ChunkSeconds*0.001 {
		t.Errorf("full-width iter = %v, want ~%v", base, n.ChunkSeconds)
	}
	// Removing one thread: excess spread over Spread=4 threads → 1.25x
	// elongation, minus the small IPC gain.
	t15 := n.IterTime(env(15, 16, 1))
	wantRel := 1.25 / n.ipcRel(15)
	if math.Abs(t15/base-wantRel) > 0.01 {
		t.Errorf("15-thread iter ratio = %v, want %v", t15/base, wantRel)
	}
	// Halving is exactly work-conserving (16 chunks = 2 per thread).
	t8 := n.IterTime(env(8, 16, 1))
	if math.Abs(t8/base-2/n.ipcRel(8)) > 0.01 {
		t.Errorf("8-thread iter ratio = %v", t8/base)
	}
	// More threads than chunks: no speedup.
	t32 := n.IterTime(env(32, 16, 1))
	if t32 < base {
		t.Errorf("expansion beyond partition sped up: %v < %v", t32, base)
	}
}

func TestFullyMalleableVariant(t *testing.T) {
	n := NEST()
	n.FullyMalleable = true
	base := n.IterTime(env(16, 16, 1))
	t15 := n.IterTime(env(15, 16, 1))
	// Work-conserving: 16/15 elongation only.
	want := (16.0 / 15.0) / n.ipcRel(15)
	if math.Abs(t15/base-want) > 0.01 {
		t.Errorf("fully malleable ratio = %v, want %v", t15/base, want)
	}
	// The malleable variant is never slower than the static one.
	static := NEST()
	for _, threads := range []int{1, 3, 5, 8, 11, 15} {
		if n.IterTime(env(threads, 16, 1)) > static.IterTime(env(threads, 16, 1))+1e-9 {
			t.Errorf("malleable slower at %d threads", threads)
		}
	}
}

func TestMalleableScalesLinearly(t *testing.T) {
	p := Pils()
	t16 := p.IterTime(env(16, 16, 1))
	t8 := p.IterTime(env(8, 16, 1))
	t4 := p.IterTime(env(4, 16, 1))
	if math.Abs(t8/t16-2) > 0.05 || math.Abs(t4/t16-4) > 0.05 {
		t.Errorf("pils scaling: t16=%v t8=%v t4=%v", t16, t8, t4)
	}
	// Pils sized to its request: 1 thread, 1 chunk runs like 16/16.
	if math.Abs(p.IterTime(env(1, 1, 1))-t16) > 0.05*t16 {
		t.Errorf("pils conf2 iter = %v, want ~%v", p.IterTime(env(1, 1, 1)), t16)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	s := STREAM()
	m := hwmodel.MN3()
	// Uncontended: 2 threads deliver 36 GB/s < capacity.
	t2 := s.IterTime(env(2, 2, 1))
	want := s.DatasetGB / (2 * s.BWPerThreadGBs)
	if math.Abs(t2-want) > 1e-9 {
		t.Errorf("stream iter = %v, want %v", t2, want)
	}
	// With contention the node bandwidth is shared proportionally.
	demand := 2*s.BWPerThreadGBs + 16 // a 16 GB/s co-runner
	slow := hwmodel.BWSlowdown(demand, m.MemBWGBs)
	tc := s.IterTime(env(2, 2, slow))
	if tc <= t2 {
		t.Errorf("contended stream not slower: %v <= %v", tc, t2)
	}
}

// TestStreamSaturationClaim encodes the paper's configuration note:
// "over two CPUs per node performance keeps constant" — adding threads
// beyond bandwidth saturation must not speed STREAM up once the node
// bus is the limit.
func TestStreamSaturationClaim(t *testing.T) {
	s := STREAM()
	m := hwmodel.MN3()
	rate := func(threads int) float64 {
		demand := float64(threads) * s.BWPerThreadGBs
		slow := hwmodel.BWSlowdown(demand, m.MemBWGBs)
		return s.DatasetGB / s.IterTime(env(threads, threads, slow))
	}
	r2, r4, r8 := rate(2), rate(4), rate(8)
	if r2 <= 0 {
		t.Fatal("rate(2) = 0")
	}
	// Beyond saturation the achieved bandwidth equals the node limit.
	if math.Abs(r4-m.MemBWGBs) > 1e-9 || math.Abs(r8-m.MemBWGBs) > 1e-9 {
		t.Errorf("saturated rates = %v/%v, want %v", r4, r8, m.MemBWGBs)
	}
	if r4 > r2*1.2 {
		t.Errorf("4 threads much faster than 2 (%v vs %v): saturation not modeled", r4, r2)
	}
}

func TestEffIPCBehaviour(t *testing.T) {
	n := NEST()
	ipcFull := n.EffIPC(env(16, 16, 1))
	ipcHalf := n.EffIPC(env(8, 16, 1))
	if ipcHalf <= ipcFull {
		t.Errorf("IPC should grow at fewer threads: %v vs %v", ipcHalf, ipcFull)
	}
	// Bandwidth pressure lowers observable IPC.
	ipcCont := n.EffIPC(env(16, 16, 1.5))
	if ipcCont >= ipcFull {
		t.Errorf("contended IPC should drop: %v vs %v", ipcCont, ipcFull)
	}
}

func TestBWDemand(t *testing.T) {
	s := STREAM()
	if got := s.BWDemand(2); got != 36 {
		t.Errorf("stream demand = %v", got)
	}
	if got := s.BWDemand(-3); got != 0 {
		t.Errorf("negative threads demand = %v", got)
	}
}

func TestInitTime(t *testing.T) {
	c := CoreNeuron()
	if c.InitTime(1) != c.InitSeconds {
		t.Errorf("uncontended init = %v", c.InitTime(1))
	}
	if c.InitTime(2) != 2*c.InitSeconds {
		t.Errorf("memory-bound init under contention = %v", c.InitTime(2))
	}
	n := NEST()
	if n.InitTime(2) != n.InitSeconds {
		t.Errorf("compute init should not stretch: %v", n.InitTime(2))
	}
}

func TestThreadBusyFraction(t *testing.T) {
	n := NEST()
	// 15 of 16 threads: excess of 1 chunk spread over 4 threads; those
	// stay busy, the rest idle 20% of the critical path (1/1.25).
	e := env(15, 16, 1)
	for th := 0; th < 4; th++ {
		if got := n.ThreadBusyFraction(th, e); got != 1 {
			t.Errorf("thread %d busy = %v, want 1", th, got)
		}
	}
	for th := 4; th < 15; th++ {
		if got := n.ThreadBusyFraction(th, e); math.Abs(got-0.8) > 1e-9 {
			t.Errorf("thread %d busy = %v, want 0.8", th, got)
		}
	}
	// Balanced case: everyone busy.
	if got := n.ThreadBusyFraction(0, env(16, 16, 1)); got != 1 {
		t.Errorf("balanced busy = %v", got)
	}
	// Malleable apps never show partition bubbles.
	pils := Pils()
	if got := pils.ThreadBusyFraction(5, env(3, 16, 1)); got != 1 {
		t.Errorf("pils busy = %v", got)
	}
}

// Property: with no locality effect (alpha = 0), iteration time is
// monotonically non-increasing in thread count for every class. With
// alpha > 0 this can legitimately fail — adding a thread lowers IPC
// without always shortening the critical path, which is exactly the
// paper's Conf. 1 vs Conf. 2 IPC observation — so the locality term is
// zeroed here and tested separately.
func TestPropertyIterTimeMonotoneWithoutLocality(t *testing.T) {
	specs := []Spec{NEST(), CoreNeuron(), Pils(), STREAM()}
	for i := range specs {
		specs[i].IPCAlpha = 0
	}
	f := func(tRaw, cRaw uint8) bool {
		threads := int(tRaw)%31 + 1
		chunks := int(cRaw)%31 + 1
		for _, s := range specs {
			a := s.IterTime(env(threads, chunks, 1))
			b := s.IterTime(env(threads+1, chunks, 1))
			if b > a*1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: expansion beyond the static partition is exactly neutral
// for Simulator-class models.
func TestPropertyExpansionBeyondPartitionNeutral(t *testing.T) {
	n := NEST()
	f := func(cRaw, extraRaw uint8) bool {
		chunks := int(cRaw)%16 + 1
		extra := int(extraRaw) % 16
		atC := n.IterTime(env(chunks, chunks, 1))
		beyond := n.IterTime(env(chunks+extra, chunks, 1))
		return math.Abs(atC-beyond) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: contention never speeds anything up.
func TestPropertyContentionSlows(t *testing.T) {
	specs := []Spec{NEST(), CoreNeuron(), Pils(), STREAM()}
	f := func(tRaw uint8, slowRaw uint8) bool {
		threads := int(tRaw)%16 + 1
		slow := 1 + float64(slowRaw)/64
		for _, s := range specs {
			if s.IterTime(env(threads, 16, slow)) < s.IterTime(env(threads, 16, 1))-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
