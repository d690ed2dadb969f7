package cpuset

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndBasicOps(t *testing.T) {
	s := New(0, 2, 4)
	for _, c := range []int{0, 2, 4} {
		if !s.IsSet(c) {
			t.Errorf("cpu %d should be set", c)
		}
	}
	for _, c := range []int{1, 3, 5} {
		if s.IsSet(c) {
			t.Errorf("cpu %d should not be set", c)
		}
	}
	if got := s.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	s.Clear(2)
	if s.IsSet(2) || s.Count() != 2 {
		t.Errorf("Clear(2) failed: %v", s)
	}
	s.Set(2)
	s.Set(2) // idempotent
	if s.Count() != 3 {
		t.Errorf("Set idempotence failed: %v", s)
	}
}

func TestZeroValueIsEmpty(t *testing.T) {
	var s CPUSet
	if !s.IsEmpty() || s.Count() != 0 || s.First() != -1 {
		t.Errorf("zero value should be empty: %v", s)
	}
	if s.String() != "" {
		t.Errorf("empty String = %q, want \"\"", s.String())
	}
}

func TestRange(t *testing.T) {
	s := Range(4, 11)
	if s.Count() != 8 {
		t.Fatalf("Range(4,11).Count = %d, want 8", s.Count())
	}
	if s.First() != 4 || s.IsSet(3) || s.IsSet(12) {
		t.Errorf("Range bounds wrong: %v", s)
	}
}

func TestRangePanics(t *testing.T) {
	for _, tc := range [][2]int{{-1, 3}, {5, 2}, {0, MaxCPUs}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Range(%d,%d) should panic", tc[0], tc[1])
				}
			}()
			Range(tc[0], tc[1])
		}()
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	var s CPUSet
	for _, f := range []func(){
		func() { s.Set(-1) },
		func() { s.Set(MaxCPUs) },
		func() { s.Clear(MaxCPUs) },
		func() { s.IsSet(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-bounds cpu")
				}
			}()
			f()
		}()
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(0, 1, 2, 3)
	b := New(2, 3, 4, 5)
	if got := a.And(b); !got.Equal(New(2, 3)) {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b); !got.Equal(Range(0, 5)) {
		t.Errorf("Or = %v", got)
	}
	if got := a.Xor(b); !got.Equal(New(0, 1, 4, 5)) {
		t.Errorf("Xor = %v", got)
	}
	if got := a.AndNot(b); !got.Equal(New(0, 1)) {
		t.Errorf("AndNot = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(New(10, 11)) {
		t.Error("a should not intersect {10,11}")
	}
	if !New(2, 3).IsSubsetOf(a) {
		t.Error("{2,3} should be subset of a")
	}
	if a.IsSubsetOf(b) {
		t.Error("a should not be subset of b")
	}
	var empty CPUSet
	if !empty.IsSubsetOf(a) {
		t.Error("empty set is a subset of everything")
	}
}

// TestRangeTakeLowestWordwise holds the word-at-a-time Range and
// TakeLowest to their one-CPU-at-a-time definitions: every range, and
// every prefix length of sets that straddle word boundaries.
func TestRangeTakeLowestWordwise(t *testing.T) {
	for lo := 0; lo < MaxCPUs; lo++ {
		for hi := lo; hi < MaxCPUs; hi++ {
			var want CPUSet
			for c := lo; c <= hi; c++ {
				want.Set(c)
			}
			if got := Range(lo, hi); !got.Equal(want) {
				t.Fatalf("Range(%d, %d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
	for _, s := range []CPUSet{{}, Range(0, 255), New(3, 7, 64, 200), Range(60, 70).Or(Range(120, 130)).Or(New(255))} {
		for n := -1; n <= s.Count()+1; n++ {
			var want CPUSet
			for c, k := s.First(), 0; c >= 0 && k < n; c, k = s.Next(c+1), k+1 {
				want.Set(c)
			}
			if got := s.TakeLowest(n); !got.Equal(want) {
				t.Fatalf("%v.TakeLowest(%d) = %v, want %v", s, n, got, want)
			}
		}
	}
}

func TestFirstNext(t *testing.T) {
	s := New(3, 7, 64, 200)
	if s.First() != 3 {
		t.Errorf("First = %d", s.First())
	}
	want := []int{3, 7, 64, 200}
	got := []int{}
	for c := s.First(); c >= 0; c = s.Next(c + 1) {
		got = append(got, c)
	}
	if len(got) != len(want) {
		t.Fatalf("iteration got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration got %v, want %v", got, want)
		}
	}
	if s.Last() != 200 || New(0).Last() != 0 || New(255).Last() != 255 || (CPUSet{}).Last() != -1 {
		t.Errorf("Last = %d, %d, %d, %d", s.Last(), New(0).Last(), New(255).Last(), (CPUSet{}).Last())
	}
	if s.Next(201) != -1 {
		t.Errorf("Next past end = %d, want -1", s.Next(201))
	}
	if s.Next(-10) != 3 {
		t.Errorf("Next(-10) = %d, want 3", s.Next(-10))
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := Range(0, 9)
	n := 0
	s.ForEach(func(c int) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("ForEach visited %d cpus, want 4", n)
	}
}

func TestList(t *testing.T) {
	s := New(5, 1, 9)
	got := s.List()
	want := []int{1, 5, 9}
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Errorf("List = %v, want %v", got, want)
	}
}

func TestTakeLowestHighest(t *testing.T) {
	s := New(1, 3, 5, 7, 9)
	if got := s.TakeLowest(2); !got.Equal(New(1, 3)) {
		t.Errorf("TakeLowest(2) = %v", got)
	}
	if got := s.TakeHighest(2); !got.Equal(New(7, 9)) {
		t.Errorf("TakeHighest(2) = %v", got)
	}
	if got := s.TakeLowest(99); !got.Equal(s) {
		t.Errorf("TakeLowest(99) = %v, want full set", got)
	}
	if got := s.TakeHighest(0); !got.IsEmpty() {
		t.Errorf("TakeHighest(0) = %v, want empty", got)
	}
}

func TestStringFormat(t *testing.T) {
	cases := []struct {
		set  CPUSet
		want string
	}{
		{New(), ""},
		{New(0), "0"},
		{Range(0, 7), "0-7"},
		{New(0, 1, 2, 5, 7, 8, 9), "0-2,5,7-9"},
		{New(16), "16"},
		{Range(0, 7).Or(New(16)).Or(Range(18, 19)), "0-7,16,18-19"},
	}
	for _, tc := range cases {
		if got := tc.set.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestParse(t *testing.T) {
	good := map[string]CPUSet{
		"":          New(),
		"0":         New(0),
		"0-7":       Range(0, 7),
		"0-2,5,7-9": New(0, 1, 2, 5, 7, 8, 9),
		" 1 , 3-4 ": New(1, 3, 4),
	}
	for in, want := range good {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", in, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
	bad := []string{"x", "1-", "-3", "5-2", "1,,2", "999", "0-999"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestTextMarshaling(t *testing.T) {
	s := New(0, 1, 2, 9)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"0-2,9"` {
		t.Errorf("json = %s", b)
	}
	var back CPUSet
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Errorf("round trip = %v", back)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &back); err == nil {
		t.Error("bad cpulist should fail to unmarshal")
	}
}

// randomSet builds a random set for property tests.
func randomSet(r *rand.Rand) CPUSet {
	var s CPUSet
	n := r.Intn(32)
	for i := 0; i < n; i++ {
		s.Set(r.Intn(MaxCPUs))
	}
	return s
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		back, err := Parse(s.String())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAlgebraLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomSet(r), randomSet(r), randomSet(r)
		// Commutativity and De Morgan-ish identities expressible
		// without complement.
		if !a.And(b).Equal(b.And(a)) || !a.Or(b).Equal(b.Or(a)) {
			return false
		}
		// Distributivity: a & (b | c) == (a&b) | (a&c)
		if !a.And(b.Or(c)).Equal(a.And(b).Or(a.And(c))) {
			return false
		}
		// AndNot identity: (a &^ b) | (a & b) == a
		if !a.AndNot(b).Or(a.And(b)).Equal(a) {
			return false
		}
		// Xor identity: a ^ b == (a|b) &^ (a&b)
		if !a.Xor(b).Equal(a.Or(b).AndNot(a.And(b))) {
			return false
		}
		// Subset consistency.
		if !a.And(b).IsSubsetOf(a) || !a.IsSubsetOf(a.Or(b)) {
			return false
		}
		// Count is consistent with inclusion-exclusion.
		if a.Or(b).Count() != a.Count()+b.Count()-a.And(b).Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTakeLowest(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		n := int(nRaw) % (MaxCPUs + 1)
		sub := s.TakeLowest(n)
		if !sub.IsSubsetOf(s) {
			return false
		}
		want := n
		if s.Count() < n {
			want = s.Count()
		}
		if sub.Count() != want {
			return false
		}
		// Every cpu excluded from sub but present in s must be above
		// every cpu in sub.
		if sub.IsEmpty() {
			return true
		}
		maxSub := sub.List()[sub.Count()-1]
		excluded := s.AndNot(sub)
		ok := true
		excluded.ForEach(func(c int) bool {
			if c < maxSub {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCount(b *testing.B) {
	s := Range(0, 127)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkStringParse(b *testing.B) {
	s := New(0, 1, 2, 5, 7, 8, 9, 16, 31, 64, 65)
	text := s.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
