package sim

import (
	"math"
	"math/rand"
	"testing"
)

// strideLoop is stride's reference: the loop itself, one add per
// occurrence. It gives up (ok false) after budget adds, so that a
// generated case whose loop would run for ever — a period below half an
// ulp with no cut, say — is dropped rather than waited for.
func strideLoop(t, p, cut float64, max, budget int64) (now, next float64, n int64, ok bool) {
	for {
		now, t = t, t+p
		n++
		if n == max || !(t < cut) {
			return now, t, n, true
		}
		if n == budget {
			return 0, 0, 0, false
		}
	}
}

// strideBudget bounds the reference's adds per case.
const strideBudget = 1 << 14

// checkStride holds stride to the loop on one case; a case the loop
// cannot finish within the budget is not checked and reports false.
func checkStride(t *testing.T, tt, p, cut float64, max int64) bool {
	t.Helper()
	wNow, wNext, wN, ok := strideLoop(tt, p, cut, max, strideBudget)
	if !ok {
		return false
	}
	if now, next, n := stride(tt, p, cut, max); now != wNow || next != wNext || n != wN {
		t.Fatalf("stride(%v, %v, %v, %d) = (%v, %v, %d), the loop gives (%v, %v, %d)",
			tt, p, cut, max, now, next, n, wNow, wNext, wN)
	}
	return true
}

// ulpOf returns the ulp of x's binade, for x positive and normal.
func ulpOf(x float64) float64 {
	_, e := math.Frexp(x)
	return math.Ldexp(1, e-53)
}

// strideCase draws one case from a mix of generators, each aimed at
// one edge of the closed form: t just below a power of two, a period
// that makes a half-ulp tie, a period below half an ulp, t zero or
// subnormal, and cuts inside t's binade, past it, at +Inf and at or
// before t; max is 1, 2, small, or near the engine's MaxInt64/16 cap.
func strideCase(r *rand.Rand) (t, p, cut float64, max int64) {
	// t: spread over the exponent range, or at an edge.
	switch r.Intn(6) {
	case 0: // just below a power of two
		t = math.Ldexp(1, r.Intn(120)-40)
		for range 1 + r.Intn(64) {
			t = math.Nextafter(t, 0)
		}
	case 1: // zero or subnormal
		if r.Intn(2) == 0 {
			t = math.Float64frombits(uint64(r.Int63n(1 << 52)))
		}
	case 2: // the replays' range, and a late start
		t = r.Float64() * math.Ldexp(1, r.Intn(60))
	default:
		t = math.Ldexp(1+r.Float64(), r.Intn(200)-100)
	}
	// p: a ratio of t's ulp, or of t, or an ordinary period.
	u := math.Ldexp(1, -1074)
	if t >= math.SmallestNonzeroFloat64*(1<<53) {
		u = ulpOf(t)
	}
	switch r.Intn(6) {
	case 0: // a half-ulp tie, Q even or odd, small or large
		q := r.Int63n(1 << uint(1+r.Intn(50)))
		p = (float64(q) + 0.5) * u
	case 1: // below half an ulp, or exactly half
		p = u / 2
		if r.Intn(2) == 0 {
			p = u * r.Float64() / 2
		}
	case 2: // a few ulps, not a tie
		p = u * (float64(r.Intn(1000)) + r.Float64())
	case 3: // the replays' periods
		p = []float64{1, 0.25, 1.5, math.Sqrt2, math.Pi / 3, 0.1}[r.Intn(6)]
	default: // relative to t, up to the whole binade and past it
		p = math.Ldexp(1+r.Float64(), r.Intn(70)-60) * math.Max(t, 1)
	}
	if !(p > 0) || math.IsInf(p, 1) {
		p = 1
	}
	// cut: a count of periods on, inside t's binade, past it, +Inf, or
	// at or before t.
	switch r.Intn(6) {
	case 0:
		cut = math.Inf(1)
	case 1:
		cut = t + p*float64(r.Intn(4000))
	case 2: // inside t's binade
		cut = t + (math.Ldexp(1, 53)*u-t)*r.Float64()
	case 3: // just past t's binade, or at its top
		cut = math.Ldexp(1, 53) * u
		for range r.Intn(3) {
			cut = math.Nextafter(cut, math.Inf(1))
		}
	case 4:
		cut = t - p*float64(r.Intn(2))
	default:
		cut = t + p*float64(r.Intn(1<<uint(r.Intn(14))))
	}
	switch r.Intn(5) {
	case 0:
		max = 1
	case 1:
		max = 2
	case 2:
		max = math.MaxInt64/16 - r.Int63n(3)
	default:
		max = 1 + r.Int63n(1<<uint(r.Intn(14)))
	}
	return t, p, cut, max
}

// TestStrideMatchesLoop holds stride to the loop it replaces, bit for
// bit on (now, next, n), on hand-picked edges of the closed form and on
// random cases from strideCase.
func TestStrideMatchesLoop(t *testing.T) {
	inf := math.Inf(1)
	below := func(x float64, k int) float64 {
		for range k {
			x = math.Nextafter(x, 0)
		}
		return x
	}
	for _, c := range []struct {
		t, p, cut float64
		max       int64
	}{
		{0, 1, 100, 1000},                                       // t = 0
		{5e-324, 1, 10, 1000},                                   // subnormal t
		{1, 5e-324, inf, 5},                                     // subnormal p: t never moves
		{below(1<<20, 3), 1, 1<<20 + 40, 1000},                  // across a binade edge
		{below(1<<20, 3), math.Sqrt2, inf, 100},                 // irrational, across the edge
		{1 << 51, 0.25, inf, 200},                               // q = 0.5: a tie, Q = 0
		{1<<51 + 0.5, 0.25, inf, 200},                           // the same tie from odd T
		{1 << 51, 1.25, 1<<51 + 300, 1000},                      // q = 2.5: a tie, Q even
		{1<<51 + 0.5, 1.25, 1<<51 + 300, 1000},                  // q = 2.5 from odd T
		{1 << 52, 1.5, 1<<52 + 300, 1000},                       // q = 1.5: a tie, Q odd
		{below(1<<51, 1), 0.75, 1<<51 + 100, 1000},              // into a binade where it ties
		{1 << 52, 0.25, 1<<52 + 10, 7},                          // below half an ulp
		{1 << 52, 0.25, 1 << 52, 7},                             // the same, cut at t
		{1e6, math.Pi / 3, 1e6 + 1000, 1 << 40},                 // cut inside the binade
		{1e6, math.Pi / 3, 1e6 + 1000, 2},                       // max 2
		{1e6, math.Pi / 3, 1e6 + 1000, 1},                       // max 1
		{1e6, math.Pi / 3, 1e6 - 1, 50},                         // cut before t
		{1e6, math.Pi / 3, 1e6, 50},                             // cut at t
		{1e6, math.Pi / 3, math.Nextafter(1e6, 2e6), 50},        // cut one ulp past t
		{1<<20 - 1000, 1, 1 << 20, math.MaxInt64 / 16},          // cut at the binade's top
		{1<<20 - 1000, 1, 1<<20 + 1, math.MaxInt64 / 16},        // cut one add past it
		{1, 1 << 60, inf, 3},                                    // p of many binades
		{3, 1, 1 << 13, 1 << 30},                                // p of half the binade
		{math.MaxFloat64 / 4, math.MaxFloat64 / 1e9, inf, 1000}, // the top binades
	} {
		if !checkStride(t, c.t, c.p, c.cut, c.max) {
			t.Fatalf("stride(%v, %v, %v, %d): the loop exceeds its budget", c.t, c.p, c.cut, c.max)
		}
	}
	r := rand.New(rand.NewSource(1))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	checked := 0
	for range n {
		tt, p, cut, max := strideCase(r)
		if checkStride(t, tt, p, cut, max) {
			checked++
		}
	}
	if checked < n/2 {
		t.Fatalf("only %d of %d random cases finished within the reference's budget", checked, n)
	}
}

// FuzzStride holds stride to the loop on fuzzed inputs: t and p taken
// as magnitudes, cut as given. A case the loop cannot finish within
// its budget, or outside stride's domain (t or p not finite, p zero,
// max below 1 or above the engine's MaxInt64/16 cap), is skipped.
func FuzzStride(f *testing.F) {
	f.Add(math.Nextafter(1<<20, 0), 1.0, float64(1<<20+40), int64(1000))
	f.Add(float64(1<<51), 0.25, math.Inf(1), int64(200))
	f.Add(float64(1<<51), 1.25, float64(1<<51+300), int64(1000))
	f.Add(float64(1<<52), 0.25, float64(1<<52+10), int64(7))
	f.Add(1e6, math.Pi/3, 1e6+1000, int64(math.MaxInt64/16))
	f.Add(5e-324, 1.0, 10.0, int64(2))
	f.Fuzz(func(t *testing.T, tt, p, cut float64, max int64) {
		tt, p = math.Abs(tt), math.Abs(p)
		if math.IsNaN(tt) || math.IsInf(tt, 0) || !(p > 0) || math.IsInf(p, 0) || max < 1 || max > math.MaxInt64/16 {
			t.Skip()
		}
		if !checkStride(t, tt, p, cut, max) {
			t.Skip()
		}
	})
}
