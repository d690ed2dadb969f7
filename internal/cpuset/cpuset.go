// Package cpuset implements a fixed-capacity CPU bitset analogous to the
// Linux cpu_set_t used by the DLB/DROM interface. A CPUSet is a value
// type: all operations either mutate the receiver through pointer
// methods or return new values, and the zero value is the empty set.
package cpuset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxCPUs is the capacity of a CPUSet. 256 covers every node size used
// in the paper's evaluation (MareNostrum III nodes have 16 cores) with
// ample headroom for larger simulated machines.
const MaxCPUs = 256

const wordBits = 64
const numWords = MaxCPUs / wordBits

// CPUSet is a bitset where bit i set means CPU i belongs to the set.
type CPUSet struct {
	bits [numWords]uint64
}

// Words returns the raw bit words of the set, lowest CPUs in word 0.
// Serializers (the shmem segment file codec) use this to emit the set
// in a fixed binary width.
func (s CPUSet) Words() [numWords]uint64 { return s.bits }

// FromWords reconstructs a set from Words output.
func FromWords(words [numWords]uint64) CPUSet { return CPUSet{bits: words} }

// New returns a set containing the given CPUs.
func New(cpus ...int) CPUSet {
	var s CPUSet
	for _, c := range cpus {
		s.Set(c)
	}
	return s
}

// Range returns the set {lo, lo+1, ..., hi}. It panics if the range is
// invalid or out of bounds, mirroring the misuse semantics of CPU_SET.
func Range(lo, hi int) CPUSet {
	if lo < 0 || hi >= MaxCPUs || lo > hi {
		panic(fmt.Sprintf("cpuset: invalid range %d-%d", lo, hi))
	}
	var s CPUSet
	for w := lo / wordBits; w <= hi/wordBits; w++ {
		word := ^uint64(0)
		if w == lo/wordBits {
			word &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if w == hi/wordBits {
			word &= ^uint64(0) >> (wordBits - 1 - uint(hi)%wordBits)
		}
		s.bits[w] = word
	}
	return s
}

func check(cpu int) {
	if cpu < 0 || cpu >= MaxCPUs {
		panic(fmt.Sprintf("cpuset: cpu %d out of range [0,%d)", cpu, MaxCPUs))
	}
}

// Set adds cpu to the set.
func (s *CPUSet) Set(cpu int) {
	check(cpu)
	s.bits[cpu/wordBits] |= 1 << (uint(cpu) % wordBits)
}

// Clear removes cpu from the set.
func (s *CPUSet) Clear(cpu int) {
	check(cpu)
	s.bits[cpu/wordBits] &^= 1 << (uint(cpu) % wordBits)
}

// IsSet reports whether cpu belongs to the set.
func (s CPUSet) IsSet(cpu int) bool {
	check(cpu)
	return s.bits[cpu/wordBits]&(1<<(uint(cpu)%wordBits)) != 0
}

// Count returns the number of CPUs in the set (CPU_COUNT).
func (s CPUSet) Count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set contains no CPUs.
func (s CPUSet) IsEmpty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two sets contain exactly the same CPUs.
func (s CPUSet) Equal(o CPUSet) bool { return s.bits == o.bits }

// And returns the intersection of s and o.
func (s CPUSet) And(o CPUSet) CPUSet {
	var r CPUSet
	for i := range s.bits {
		r.bits[i] = s.bits[i] & o.bits[i]
	}
	return r
}

// Or returns the union of s and o.
func (s CPUSet) Or(o CPUSet) CPUSet {
	var r CPUSet
	for i := range s.bits {
		r.bits[i] = s.bits[i] | o.bits[i]
	}
	return r
}

// Xor returns the symmetric difference of s and o.
func (s CPUSet) Xor(o CPUSet) CPUSet {
	var r CPUSet
	for i := range s.bits {
		r.bits[i] = s.bits[i] ^ o.bits[i]
	}
	return r
}

// AndNot returns the CPUs in s that are not in o.
func (s CPUSet) AndNot(o CPUSet) CPUSet {
	var r CPUSet
	for i := range s.bits {
		r.bits[i] = s.bits[i] &^ o.bits[i]
	}
	return r
}

// Intersects reports whether s and o share at least one CPU.
func (s CPUSet) Intersects(o CPUSet) bool {
	for i := range s.bits {
		if s.bits[i]&o.bits[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubsetOf reports whether every CPU of s is also in o.
func (s CPUSet) IsSubsetOf(o CPUSet) bool {
	for i := range s.bits {
		if s.bits[i]&^o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// First returns the lowest CPU in the set, or -1 if the set is empty.
func (s CPUSet) First() int {
	return s.Next(0)
}

// Last returns the highest CPU in the set, or -1 if the set is empty.
func (s CPUSet) Last() int {
	for wi := numWords - 1; wi >= 0; wi-- {
		if w := s.bits[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Next returns the lowest CPU >= from in the set, or -1 if none exists.
func (s CPUSet) Next(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= MaxCPUs {
		return -1
	}
	wi := from / wordBits
	w := s.bits[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < numWords; wi++ {
		if s.bits[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.bits[wi])
		}
	}
	return -1
}

// ForEach calls fn for every CPU in the set in ascending order. If fn
// returns false the iteration stops early.
func (s CPUSet) ForEach(fn func(cpu int) bool) {
	for c := s.First(); c >= 0; c = s.Next(c + 1) {
		if !fn(c) {
			return
		}
	}
}

// List returns the CPUs in the set in ascending order.
func (s CPUSet) List() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(c int) bool {
		out = append(out, c)
		return true
	})
	return out
}

// TakeLowest returns a subset with the n lowest CPUs of s. If s has
// fewer than n CPUs the whole set is returned.
func (s CPUSet) TakeLowest(n int) CPUSet {
	var r CPUSet
	for i, w := range s.bits {
		if n <= 0 {
			break
		}
		if c := bits.OnesCount64(w); c <= n {
			r.bits[i], n = w, n-c
			continue
		}
		for ; n > 0; n-- {
			low := w & -w
			r.bits[i] |= low
			w &^= low
		}
	}
	return r
}

// TakeHighest returns a subset with the n highest CPUs of s. If s has
// fewer than n CPUs the whole set is returned.
func (s CPUSet) TakeHighest(n int) CPUSet {
	var r CPUSet
	list := s.List()
	if n > len(list) {
		n = len(list)
	}
	for _, c := range list[len(list)-n:] {
		r.Set(c)
	}
	return r
}

// String renders the set in Linux cpulist format, e.g. "0-7,16,18-19".
// The empty set renders as "".
func (s CPUSet) String() string {
	var b strings.Builder
	first := true
	c := s.First()
	for c >= 0 {
		runStart := c
		runEnd := c
		for s.Next(runEnd+1) == runEnd+1 {
			runEnd++
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		if runStart == runEnd {
			fmt.Fprintf(&b, "%d", runStart)
		} else {
			fmt.Fprintf(&b, "%d-%d", runStart, runEnd)
		}
		c = s.Next(runEnd + 1)
	}
	return b.String()
}

// Parse parses the Linux cpulist format produced by String. Whitespace
// around entries is tolerated. The empty string parses to the empty set.
func Parse(text string) (CPUSet, error) {
	var s CPUSet
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return CPUSet{}, fmt.Errorf("cpuset: empty entry in %q", text)
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return CPUSet{}, fmt.Errorf("cpuset: bad range start %q: %v", part, err)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return CPUSet{}, fmt.Errorf("cpuset: bad range end %q: %v", part, err)
			}
			if a < 0 || b >= MaxCPUs || a > b {
				return CPUSet{}, fmt.Errorf("cpuset: invalid range %q", part)
			}
			for c := a; c <= b; c++ {
				s.Set(c)
			}
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil {
			return CPUSet{}, fmt.Errorf("cpuset: bad cpu %q: %v", part, err)
		}
		if c < 0 || c >= MaxCPUs {
			return CPUSet{}, fmt.Errorf("cpuset: cpu %d out of range", c)
		}
		s.Set(c)
	}
	return s, nil
}

// MarshalText implements encoding.TextMarshaler using the cpulist
// format, so CPUSets serialize naturally in JSON/configs.
func (s CPUSet) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *CPUSet) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}
