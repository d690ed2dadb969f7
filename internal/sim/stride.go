package sim

import "math"

// strideAfter is how many whole rounds a uniform group, and how many
// runs a two-member merge, takes one add at a time before stride takes
// the rest. Most moves are a few occurrences long, and for those the
// adds cost less than setting up the closed form; measured, not tuned
// per input.
const strideAfter = 16

// strideMin bounds t and the period from below for the closed form: far
// above the subnormals, so that t's binade holds every multiple of its
// ulp, and the ulp and its inverse are normal powers of two.
const strideMin = 0x1p-900

// stride takes the occurrences of a plain chain pending at t, period p
// apart, exactly as the loop
//
//	for { now, t = t, t+p; n++; if n == max || !(t < cut) { break } }
//
// does, and returns what it leaves: now, t as next, and n. It takes
// them in closed form inside one binade. There, t = T·u, where u is the
// ulp of t's binade [2^52·u, 2^53·u) and T an integer, and every float
// of the binade is a multiple of u. So while the exact sum stays in the
// binade, fl(t + p) = (T + Q)·u with Q = p/u rounded to nearest — unless
// p/u ends in exactly one half, a tie whose rounding depends on T's
// parity — and m adds are the one integer add T + m·Q: exact, not an
// approximation. Leaving the binade is one real add. A tie, a t or p
// too small for the closed form, a p of half the binade's width or more,
// and a last occurrence take real adds too.
func stride(t, p, cut float64, max int64) (now, next float64, n int64) {
	for {
		if max-n >= 2 && t >= strideMin && p >= strideMin {
			bits := math.Float64bits(t)
			exp := int(bits >> 52) // biased: u = 2^(exp-1075)
			T := int64(bits&(1<<52-1) | 1<<52)
			u := math.Float64frombits(uint64(exp-52) << 52)
			inv := math.Float64frombits(uint64(2098-exp) << 52) // 1/u
			if q := p * inv; q < 1<<51 {                        // p/u, exact
				Q := int64(q)
				if frac := q - float64(Q); frac != 0.5 {
					if frac > 0.5 {
						Q++
					}
					if Q == 0 { // fl(t + p) == t: t never moves
						if t < cut {
							return t, t, max
						}
						return t, t, n + 1
					}
					// m adds keep the exact sum below 2^53·u. The loop ends
					// within them if it runs out of max, or once T + m·Q
					// reaches cut/u — an integer when cut lies in the binade
					// past t; one add reaches a cut at or before t.
					m, end := (1<<53-1-T)/Q, false
					if r := max - n; r <= m {
						m, end = r, true
					}
					if c := cut * inv; !(c >= 1<<53) {
						mc := int64(1)
						if c > float64(T) {
							mc = (int64(c) - T + Q - 1) / Q
						}
						if mc <= m {
							m, end = mc, true
						}
					}
					if m > 0 {
						now, next, n = float64(T+(m-1)*Q)*u, float64(T+m*Q)*u, n+m
						if end {
							return now, next, n
						}
						t = next // the next add leaves the binade
					}
				}
			}
		}
		now, t = t, t+p
		n++
		if n == max || !(t < cut) {
			return now, t, n
		}
	}
}
