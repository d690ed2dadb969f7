// Package lib holds the fixture's reached and unreached names.
package lib

// Static is called from main.
func Static() { helper() }

func helper() {}

// Dead is called by nothing.
func Dead() { orphan() }

// orphan is reached only from Dead.
func orphan() {}

// T has a method main takes as a value and one nothing names.
type T struct{}

// Value is taken as a method value.
func (T) Value() int { return 1 }

// Unused is named nowhere and declared by no interface.
func (T) Unused() {}

// Shape is called through Area; nothing calls Sides.
type Shape interface {
	Area() float64
	Sides() int
}

// Circle and Square are the two implementations main reaches.
type Circle struct{}

func (Circle) Area() float64 { return 3 }

func (Circle) Sides() int { return 0 }

// Square is the second implementation.
type Square struct{}

func (Square) Area() float64 { return 4 }

func (Square) Sides() int { return 4 }

// Hex implements Shape, but only an assertion names it.
type Hex struct{}

func (*Hex) Area() float64 { return 6 }

func (*Hex) Sides() int { return 6 }

var _ Shape = (*Hex)(nil)

// Color prints through fmt.Stringer.
type Color int

// Red is the one color main uses.
const Red Color = 1

func (c Color) String() string { return "red" }

// Mode is an iota block: main names one member, all are reached.
type Mode int

// The modes.
const (
	ModeA Mode = iota
	ModeB
	ModeC
)

// Unused is a const no one names.
const Unused = 3

// Ref is a test reference that main calls anyway.
//
//simvet:testonly reference implementation for tests
func Ref() {}

// Ref2 is a test reference no main reaches.
//
//simvet:testonly reference implementation for tests
func Ref2() int { refHelper(); return Rec{}.byTest }

// refHelper is reached only through a test reference.
func refHelper() {}

// Exposed is public through facade.Alias; no main names it.
type Exposed struct{}

// Get is public API through the alias.
func (Exposed) Get() int { return 1 }

// hidden is unexported: a facade user cannot call it.
func (Exposed) hidden() {}

// Made is handed out by facade.Make.
type Made struct{}

// Next is public API through Make's result.
func (*Made) Next() Deep { return Deep{} }

// Deep is reached from Next's body only: the exposure stops at the
// types a facade names. Its exported field is read by facade users
// anyway: field exposure goes on through Next's signature.
type Deep struct{ Depth int }

// Method is named by nothing.
func (Deep) Method() {}

// Rec holds one field of each kind the field rule sorts.
type Rec struct {
	Base          // embedded: a promotion reads it
	Tag    string `json:"tag"` // tagged: reflection reads it
	kept   int
	wo     int // only assigned
	lit    int // only set in a literal
	addr   int // read through its address
	byTest int // read only by a test reference
	marked int //simvet:testonly read by tests only
	live   int //simvet:testonly but main reads it
}

// Base is embedded in Rec; main reads ID through the promotion.
type Base struct{ ID int }

// Records uses Rec's fields; main calls it.
func Records() int {
	r := Rec{lit: 1}
	r.wo = 2
	r.wo++
	p := &r.addr
	return r.kept + *p + r.ID + r.live
}

// Orphan is named nowhere: its field is the type's finding.
type Orphan struct{ x int }
