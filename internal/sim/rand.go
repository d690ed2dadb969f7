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
