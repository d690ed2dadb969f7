package sim

// Rand is a seeded random stream a simulation fork can continue: the
// generator's whole state is held by value (rng.go), so Fork copies it.
// Both lineages then draw the same sequence, and forking consumes
// nothing from the parent and costs the same after any number of
// draws. The values are math/rand's for the seed, unchanged.
type Rand struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

// NewRand returns the stream of rand.NewSource(seed).
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Float64 draws the next value in [0, 1), as rand.(*Rand).Float64
// does: float64(Int63()) / (1 << 63), drawing again on 1.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
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
	f := *r
	return &f
}
