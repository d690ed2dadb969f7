package sim

import "slices"

// Slots is a table of values named by their indexes — the slots the
// events of a class carry. Put stores a value in a vacant slot, reusing
// one before growing, so a table that events keep cycling through
// allocates nothing once warm; Take vacates it. The zero value is
// empty; a fork takes a Clone.
type Slots[T any] struct {
	items []T
	free  []int32
}

// Put stores v in a vacant slot and returns its index.
func (s *Slots[T]) Put(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = v
		return i
	}
	s.items = append(s.items, v)
	return int32(len(s.items) - 1)
}

// Take returns the value in slot i and vacates the slot.
func (s *Slots[T]) Take(i int32) T {
	v := s.items[i]
	s.items[i] = *new(T)
	s.free = append(s.free, i)
	return v
}

// At returns the value in slot i; the pointer is valid until the next
// Put.
func (s *Slots[T]) At(i int32) *T { return &s.items[i] }

// Reset vacates every slot and forgets them all, keeping the arrays:
// the next Put returns 0, as on a zero table.
func (s *Slots[T]) Reset() {
	clear(s.items) // a vacated value pins nothing
	*s = Slots[T]{items: s.items[:0], free: s.free[:0]}
}

// Clone returns a copy of the table that shares no array with it.
func (s *Slots[T]) Clone() Slots[T] {
	return Slots[T]{items: slices.Clone(s.items), free: slices.Clone(s.free)}
}
