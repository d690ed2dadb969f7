package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// drawsOf returns how many values a stream of seed draws before it
// stands where r does, or -1 if it does not within limit draws.
func drawsOf(r *Rand, seed, limit int64) int64 {
	f := NewRand(seed)
	for n := int64(0); n <= limit; n++ {
		if *f == *r {
			return n
		}
		f.Float64()
	}
	return -1
}

// randSeeds are the oracle's seeds: zero, the signs, both ends of
// int64, and the multiples and neighbours of 2³¹−1 that the seeding
// folds onto each other or onto zero.
var randSeeds = []int64{
	0, 1, -1, 2, 7, 99, -3, 1 << 40, -1 << 40, 89482311,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1, -int32max - 1,
	math.MaxInt32, math.MinInt32, 123456789, -987654321, 1 << 31, 1 << 62,
}

// TestRandIsMathRand: the stream is math/rand's for the seed, value for
// value, 10⁵ draws a seed compared with == — a different generator
// would move every jittered and faulted output.
func TestRandIsMathRand(t *testing.T) {
	seeds := slices.Clone(randSeeds)
	for i := range int64(16) {
		seeds = append(seeds, i*0x4F1BBCDCBFA53E0B, -i*1000003)
	}
	for _, seed := range seeds {
		r, ref := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := range 100000 {
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}

// FuzzRand: any seed, any number of draws, and a fork at any point of
// them — the parent, and the fork drawing on from the fork point, give
// math/rand's values for the seed, and drawing from the fork leaves
// the parent's next values unchanged.
func FuzzRand(f *testing.F) {
	for _, seed := range randSeeds {
		f.Add(seed, uint16(100), uint16(40))
	}
	f.Add(int64(5), uint16(0), uint16(0))
	f.Add(int64(-8), uint16(1300), uint16(1299))
	f.Fuzz(func(t *testing.T, seed int64, draws, forkAt uint16) {
		forkAt = min(forkAt, draws)
		r, ref := NewRand(seed), rand.New(rand.NewSource(seed))
		want := make([]float64, draws)
		for i := range want {
			want[i] = ref.Float64()
		}
		for i := range int(forkAt) {
			if got := r.Float64(); got != want[i] {
				t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, i, got, want[i])
			}
		}
		fork := r.Fork()
		for i := int(forkAt); i < len(want); i++ {
			if got := fork.Float64(); got != want[i] {
				t.Fatalf("seed %d, forked at %d, draw %d: %v, math/rand %v", seed, forkAt, i, got, want[i])
			}
		}
		for i := int(forkAt); i < len(want); i++ {
			if got := r.Float64(); got != want[i] {
				t.Fatalf("seed %d: the parent's draw %d after its fork drew on: %v, math/rand %v", seed, i, got, want[i])
			}
		}
	})
}

// TestRandForkContinuesStream: a fork taken after any number of draws
// yields exactly the parent's next values, drawing from it leaves the
// parent's next values unchanged, and a fork of a fork (Snapshot then
// Restore) continues the same stream.
func TestRandForkContinuesStream(t *testing.T) {
	const n = 64
	next := func(r *Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	for _, k := range []int{0, 1, 1000} {
		parent, twin := NewRand(5), NewRand(5)
		for i := 0; i < k; i++ {
			parent.Float64()
			twin.Float64()
		}
		fork := parent.Fork()
		grand := fork.Fork()
		got := next(fork)
		want := next(parent)
		if !slices.Equal(got, want) {
			t.Errorf("fork at %d draws: next values differ from the parent's", k)
		}
		if ref := next(twin); !slices.Equal(want, ref) {
			t.Errorf("fork at %d draws: drawing from the fork moved the parent", k)
		}
		if !slices.Equal(next(grand), want) {
			t.Errorf("fork of a fork at %d draws: next values differ from the parent's", k)
		}
	}
	if (*Rand)(nil).Fork() != nil {
		t.Error("nil Rand forked to non-nil")
	}
}

// forkSink keeps the forks of TestRandForkAllocsFlatInDraws on the heap.
var forkSink *Rand

// TestRandForkAllocsFlatInDraws pins Fork as a copy: after 10⁶ draws it makes
// the one allocation, of the same bytes, that it makes after none, and
// takes about as long — a fork that replayed the draws would take
// thousands of times longer.
func TestRandForkAllocsFlatInDraws(t *testing.T) {
	fresh, drawn := NewRand(3), NewRand(3)
	for range 1000000 {
		drawn.Float64()
	}
	cost := func(r *Rand) (allocs float64, bytes uint64, d time.Duration) {
		allocs = testing.AllocsPerRun(100, func() { forkSink = r.Fork() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		forkSink = r.Fork()
		runtime.ReadMemStats(&after)
		d = time.Duration(math.MaxInt64)
		for range 5 {
			t0 := time.Now()
			for range 40 {
				forkSink = r.Fork()
			}
			d = min(d, time.Since(t0))
		}
		return allocs, after.TotalAlloc - before.TotalAlloc, d
	}
	a0, b0, d0 := cost(fresh)
	a1, b1, d1 := cost(drawn)
	if a0 != 1 || a1 != a0 || b1 != b0 {
		t.Errorf("a fork after 10⁶ draws makes %v allocations of %d bytes, after none %v of %d; want 1 of the same", a1, b1, a0, b0)
	}
	if d1 > 20*d0+time.Millisecond {
		t.Errorf("40 forks after 10⁶ draws take %v, after none %v", d1, d0)
	}
}
