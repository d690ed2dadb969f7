// Package hp is hotpath-analyzer testdata: one annotated entry point,
// a reachable helper with every flagged construct, a coldpath-stopped
// callee, and an unreachable function that stays silent.
package hp

import "fmt"

// P is a policy stand-in with reusable buffers.
type P struct {
	buf []int
	m   map[int]int
}

// Schedule is the hot-path entry point.
//
//simvet:hotpath
func (p *P) Schedule(n int) string {
	s := fmt.Sprintf("%d", n) // want `fmt\.Sprintf allocates`
	s += "!"                  // want `string concatenation`
	t := s + "?"              // want `string concatenation`
	_ = t
	_ = []int{n} // want `map/slice literal`
	p.helper(n)
	p.cold(n)
	return s
}

func (p *P) helper(n int) {
	if cap(p.buf) < n {
		p.buf = make([]int, 0, n) // lazy grow-once: exempt
	}
	if p.m == nil {
		p.m = make(map[int]int) // lazy init: exempt
	}
	q := make([]int, n) // want `make on the hot path`
	_ = q
	f := func() int { return n } // want `capturing closure`
	_ = f()
	g := func() int { return 0 } // non-capturing: static, exempt
	_ = g()
	sink(n)          // want `boxes the value`
	sink(&p.buf)     // pointers store directly in the interface word: exempt
	_ = first(p.buf) // a type parameter is not an interface parameter: exempt
	if n < 0 {
		panic(fmt.Sprintf("bad %d", n)) // panic is terminal: exempt
	}
	h := make([]int, n) //simvet:alloc amortised, grows once per run
	_ = h
}

// cold is error/log formatting kept off the traversal.
//
//simvet:coldpath error formatting only
func (p *P) cold(n int) {
	_ = fmt.Sprintf("cold %d", n)
}

func sink(v interface{}) {}

func first[S ~[]E, E any](s S) E { return s[0] }

// NotReachable is never called from a hotpath seed; its allocations
// are not the analyzer's business.
func NotReachable() string {
	return fmt.Sprintf("fine")
}
