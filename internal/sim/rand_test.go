package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRandIsMathRand: the stream is math/rand's for the seed, value for
// value — a different generator would move every jittered and faulted
// output.
func TestRandIsMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 99, -3, 1 << 40} {
		r, ref := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, i, got, want)
			}
		}
	}
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
