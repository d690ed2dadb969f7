package sim

import "math/rand"

// Rand is a seeded random stream a simulation fork can continue: it
// counts its draws, so Fork rebuilds the generator from the seed and
// discards exactly that many values. Both lineages then draw the same
// sequence from private generators, and forking consumes nothing from
// the parent. The values are math/rand's for the seed, unchanged.
type Rand struct {
	seed, draws int64
	r           *rand.Rand
}

// NewRand returns the stream of rand.NewSource(seed).
func NewRand(seed int64) *Rand {
	return &Rand{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Float64 draws the next value in [0, 1).
func (r *Rand) Float64() float64 {
	r.draws++
	return r.r.Float64()
}

// Jitter draws the next value u and returns d scaled by a factor in
// [1-frac, 1+frac): d * (1 + frac*(2u-1)). It is the one formula of a
// jittered duration — an executed iteration and an occurrence the
// engine takes by itself (Periodic.ArmJitter) both call it through
// Engine.Jitter, so the two paths produce the same float from the same
// draw. The conversions keep it so where Go may fuse a multiply and an
// add (arm64 and others): the engine adds the result to now right
// after the inlined call, the executed path in another function, so an
// unrounded product would fuse into one path's add and not the other's.
// On amd64 they are no-ops.
func (r *Rand) Jitter(d, frac float64) float64 {
	return float64(d * (1 + float64(frac*(2*r.Float64()-1))))
}

// Fork returns a copy at the same stream position (nil for nil).
func (r *Rand) Fork() *Rand {
	if r == nil {
		return nil
	}
	f := NewRand(r.seed)
	for f.draws < r.draws {
		f.Float64()
	}
	return f
}
