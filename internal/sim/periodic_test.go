package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tickFunc adapts a function to a chain's owner.
type tickFunc func()

func (f tickFunc) Tick() { f() }

// fireFunc adapts a function of the slot to a class's handler.
type fireFunc func(slot int32)

func (f fireFunc) Fire(_ Class, slot int32) { f(slot) }

// TestStepOnArmedRootRunsNoCallback: a step that finds an armed
// occurrence at the head takes it without calling back, and the entry
// is re-keyed exactly as the callback's own After would have keyed it.
func TestStepOnArmedRootRunsNoCallback(t *testing.T) {
	e := NewEngine()
	calls := 0
	var slot int32
	e.AfterTick(&slot, tickFunc(func() { calls++ }), 1.5)
	p := e.Periodic(slot)
	p.Arm(0.25, 1)
	e.At(100, func() {}) // so the chain is not alone
	if !e.Step() {
		t.Fatal("Step on an armed head returned false")
	}
	if calls != 0 || e.Processed() != 0 || e.Skipped() != 1 {
		t.Fatalf("calls=%d processed=%d skipped=%d, want 0/0/1", calls, e.Processed(), e.Skipped())
	}
	if e.Now() != 1.5 || p.id == 0 || p.Credit() != 0 {
		t.Fatalf("now=%v pending=%v credit=%d", e.Now(), p.id != 0, p.Credit())
	}
	// IDs 1 and 2 went to the two scheduled events; the occurrence the
	// engine took drew 3, as the callback's After would have.
	if got := e.queue[0]; got.t != 1.75 || got.id != 3 || e.nextID != 3 {
		t.Fatalf("re-keyed head = (%v, %d), nextID %d; want (1.75, 3), 3", got.t, got.id, e.nextID)
	}
	// Credit exhausted: the next step executes the callback.
	if !e.Step() || calls != 1 || e.Now() != 1.75 || p.id != 0 {
		t.Fatalf("calls=%d now=%v pending=%v after the executed occurrence", calls, e.Now(), p.id != 0)
	}
}

// TestLoneArmedChainStopsAtRunUntilBound: with nothing else pending
// the engine takes a whole span in one step, but never an occurrence
// later than the bound — what a caller does between two RunUntil calls
// must find the chain where stepping would have left it.
func TestLoneArmedChainStopsAtRunUntilBound(t *testing.T) {
	e := NewEngine()
	calls := 0
	var slot int32
	e.AfterTick(&slot, tickFunc(func() { calls++ }), 1)
	p := e.Periodic(slot)
	p.Arm(1, 1000)
	e.RunUntil(10.5)
	if e.Skipped() != 10 || p.Credit() != 990 || e.Now() != 10.5 || calls != 0 {
		t.Fatalf("skipped=%d credit=%d now=%v calls=%d, want 10/990/10.5/0", e.Skipped(), p.Credit(), e.Now(), calls)
	}
	if e.queue[0].t != 11 {
		t.Fatalf("pending occurrence at %v, want 11", e.queue[0].t)
	}
	e.RunUntil(11) // the bound is inclusive
	if e.Skipped() != 11 {
		t.Fatalf("skipped=%d after RunUntil(11), want 11", e.Skipped())
	}
	// A plain Step has no bound: the rest of the span goes at once.
	if !e.Step() || e.Skipped() != 1000 || e.Now() != 1000 || calls != 0 {
		t.Fatalf("skipped=%d now=%v calls=%d after Step, want 1000/1000/0", e.Skipped(), e.Now(), calls)
	}
	e.Run()
	if calls != 1 || e.Now() != 1001 || e.Processed() != 1 {
		t.Fatalf("calls=%d now=%v processed=%d at the end", calls, e.Now(), e.Processed())
	}
}

// TestDisarmLeavesOccurrenceInPlace: withdrawing the credit moves
// nothing — the pending occurrence keeps its time and ID and executes.
func TestDisarmLeavesOccurrenceInPlace(t *testing.T) {
	e := NewEngine()
	var at []float64
	var slot int32
	e.AfterTick(&slot, tickFunc(func() { at = append(at, e.Now()) }), 1)
	p := e.Periodic(slot)
	p.Arm(1, 50)
	e.RunUntil(7)
	headT, headID := e.queue[0].t, e.queue[0].id
	if left := p.Disarm(); left != 43 {
		t.Fatalf("Disarm returned %d, want 43", left)
	}
	if got := e.queue[0]; got.t != headT || got.id != headID || got.class != tick || got.slot != slot {
		t.Fatalf("Disarm moved the occurrence: (%v, %d) -> (%v, %d)", headT, headID, got.t, got.id)
	}
	e.Run()
	if len(at) != 1 || at[0] != 8 {
		t.Fatalf("callback times %v, want [8]", at)
	}
}

// TestCancelPeriodic: cancelling goes through the slot, whatever ID
// the occurrence carries by now, and frees the slot for reuse.
func TestCancelPeriodic(t *testing.T) {
	e := NewEngine()
	var slot, again int32
	e.AfterTick(&slot, tickFunc(func() { t.Error("cancelled occurrence ran") }), 1)
	freed := slot
	e.Periodic(slot).Arm(1, 10)
	e.At(3.5, func() { e.FreeTick(&slot) })
	ran := false
	e.At(4, func() {
		if slot != 0 {
			t.Errorf("FreeTick left the slot at %d", slot)
		}
		e.AfterTick(&again, tickFunc(func() { ran = true }), 1)
		if again != freed {
			t.Errorf("AfterTick took slot %d, not the freed %d", again, freed)
		}
	})
	e.Run()
	if e.Skipped() != 3 || !ran || e.Now() != 5 {
		t.Fatalf("skipped=%d ran=%v now=%v, want 3/true/5", e.Skipped(), ran, e.Now())
	}
	e.FreeTick(&again) // nothing pending: only the chain goes
}

// --- differential fuzz -------------------------------------------------

// skipPeriods mixes periods that keep every chain on a quarter grid —
// so chains, one-shots and bounds tie at every instant — with
// irrational ones that never tie.
var skipPeriods = []float64{1, 1, 1.25, 1.5, 2, 0.25, math.Sqrt2, math.Pi / 3}

// A script whose first byte has a non-zero high nibble h builds a late
// world (h = 0, as in every committed script but the stride-* seeds,
// builds none of this): it starts its clock at skipOrigins[(h-1) % len],
// and takes its heartbeat 16 times less often, so that a move can run
// past strideAfter rounds and take the rest in closed form. The origins
// are 0, about 10^6 (where √2 and π/3 round), and just below powers of
// two, so that a move crosses a binade edge: past 2^51 the periods 0.25
// and 1.25 make half-ulp ties, past 2^52 1.5 does, past 2^53 1 does.
var skipOrigins = []float64{0, 1e6, 1<<20 - 24, 1<<51 - 24, 1<<51 - 6, 1<<52 - 24, 1<<53 - 24}

// skipLockstepSeed decodes to three unit-period chains of 42
// occurrences each, started together, with no interference: they tie at
// every instant.
var skipLockstepSeed = []byte{3, 2, 0, 40, 63, 0, 0, 1, 40, 63, 0, 0, 0, 40, 63, 0, 0, 0, 2, 40, 1, 0}

// Three seeds for solo chains (ArmSolo), committed under testdata/fuzz
// as solo-ties-*, each built around one kind of
// entry a solo occurrence can share its instant with: a plain chain in
// lockstep with it, the cancelled entry a chain cancelled through its
// handle leaves in the queue, and a front-band entry with the regular
// zero-delay push it makes.
var (
	skipSoloPlainSeed     = []byte{6, 1, 0, 40, 63, 3, 0, 0, 40, 63, 0, 0, 0, 1, 0, 41, 0, 0, 40, 1, 1}
	skipSoloCancelledSeed = []byte{2, 1, 4, 40, 63, 3, 0, 2, 58, 63, 0, 3, 0, 1, 1, 44, 1, 2, 60, 0, 0}
	skipSoloFrontSeed     = []byte{4, 0, 0, 40, 63, 3, 0, 2, 20, 8, 0, 48, 9, 0, 0, 0, 30, 0, 0}
)

// Seven seeds for group moves, committed under testdata/fuzz as group-*:
// chains of one period out of phase, each seed built around one thing
// a move must get right. Most run three unit-period chains a quarter
// apart with a heartbeat every 16 steps.
var skipGroupSeeds = []struct {
	name string
	seed []byte
}{
	// The plain case, forked after the second bound.
	{"staggered", []byte{15, 2, 0, 57, 63, 0, 0, 0, 57, 63, 0, 1, 0, 57, 63, 0, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// The middle chain is granted 5 occurrences at a time, so its credit
	// runs out inside a round.
	{"credit-spent-mid-round", []byte{15, 2, 0, 57, 63, 0, 0, 0, 57, 4, 0, 1, 0, 57, 63, 0, 2, 0, 1, 0, 60, 0, 0, 20, 1, 1}},
	// Period 0.25 from 0.25, 0.25+1ulp and 0.25+2ulps: the first two
	// meet when first booked, the third two rounds into a move
	// (0.75+1ulp + 0.25 rounds to 1).
	{"ulp-collision", []byte{15, 2, 5, 57, 63, 0, 1, 5, 57, 63, 0, 65, 5, 57, 63, 0, 73, 0, 1, 1, 12, 0, 0, 10, 2, 1}},
	// A one-shot cancels the middle chain through its handle at t=5,
	// leaving its entry in the queue; another restarts it at t=8.
	{"cancelled-member", []byte{15, 2, 0, 57, 63, 0, 0, 0, 57, 63, 0, 1, 0, 57, 63, 0, 2, 2, 20, 2, 1, 32, 4, 1, 1, 1, 28, 0, 0, 40, 0, 0}},
	// A solo chain a quarter behind a pair that meets by rounding (0 and
	// the least positive float), with a fourth chain behind it.
	{"solo-neighbour", []byte{15, 3, 0, 57, 63, 0, 0, 0, 57, 63, 3, 1, 0, 57, 63, 0, 64, 0, 57, 63, 0, 2, 0, 1, 0, 30, 1, 1, 41, 0, 0}},
	// The first bound, 10.25, falls inside a round: the fork takes the
	// group split, a heartbeat every 7 steps splits it again.
	{"split-by-fork", []byte{6, 2, 0, 57, 63, 0, 0, 0, 57, 63, 0, 1, 0, 57, 63, 0, 2, 0, 1, 0, 41, 1, 0, 5, 2, 1}},
	// The middle chain is late and granted 4 at a time: each time it
	// executes, its next occurrence lies past the head's fl(t + P), so
	// it must stay out of the group.
	{"past-reach", []byte{15, 2, 0, 57, 63, 0, 0, 0, 57, 3, 6, 1, 0, 57, 63, 0, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
}

// Five seeds for merges: chains of two periods, or a jittered chain
// beside another, moving together, committed under testdata/fuzz as
// merge-*, each built around one thing the merge must get right. Each
// runs a unit-period chain beside a 1.5-period one, from 0 and 0.5
// (from 0.5+1ulp and 0 on the ulp seed), with a heartbeat every 16
// steps (5 on the heartbeat seed).
var skipMergeSeeds = []struct {
	name string
	seed []byte
}{
	// Both plain: the unit chain takes one or two occurrences, the other
	// one, and so on — each run ends at the other's pending time.
	{"two-periods", []byte{15, 1, 0, 57, 63, 0, 0, 3, 57, 63, 0, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// The unit chain jittered beside the plain one: its draws are made
	// as the merge takes its occurrences, in pop order.
	{"jitter-beside-plain", []byte{15, 1, 0, 57, 63, 12, 0, 3, 57, 63, 0, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// The unit chain from 0.5+1ulp, the other from 0: one add takes both
	// to 1.5 (1.5+2^-53 rounds to even), a tie made by rounding across
	// two periods that the IDs resolve.
	{"ulp-tie", []byte{15, 1, 3, 57, 63, 0, 0, 0, 57, 63, 0, 66, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// A heartbeat every 5 steps falls inside merges: each stops on it.
	{"heartbeat-mid-merge", []byte{4, 1, 0, 57, 63, 0, 0, 3, 57, 63, 0, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// The 1.5-period chain is granted 5 occurrences at a time, so its
	// credit runs out inside a merge: its next occurrence executes.
	{"credit-spent-mid-merge", []byte{15, 1, 0, 57, 63, 0, 0, 3, 57, 4, 0, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
}

// Five seeds for jittered chains (flag 12), committed under testdata/fuzz
// as jitter-*, each built around one thing the engine's draw-as-it-takes
// must get right.
var skipJitterSeeds = []struct {
	name string
	seed []byte
}{
	// Two unit-period jittered chains half a period apart, overtaking
	// each other: they merge, so a move ends only at a bound, a
	// heartbeat or an executed occurrence.
	{"interleaving", []byte{15, 1, 0, 57, 63, 12, 0, 0, 57, 63, 12, 2, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// Three unit-period plain chains a quarter apart, which move as a
	// group, beside a unit-period jittered chain that joins it.
	{"beside-group", []byte{15, 3, 0, 57, 63, 0, 0, 0, 57, 63, 0, 1, 0, 57, 63, 0, 2, 0, 57, 63, 12, 3, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// A plain chain granted 4 at a time wakes the jittered one each time
	// it executes, and a one-shot wakes it at t=10.25.
	{"wake-mid-span", []byte{15, 1, 0, 57, 63, 12, 0, 2, 40, 3, 2, 1, 1, 41, 1, 0, 1, 1, 40, 0, 0, 40, 0, 0}},
	// Forked at t=10.25, the jittered chain mid-span: the fork's handle
	// draws from the fork's stream.
	{"fork-mid-span", []byte{15, 1, 0, 57, 63, 12, 0, 6, 50, 63, 0, 1, 0, 2, 0, 41, 0, 0, 40, 0, 0, 40, 0, 0}},
	// A lone jittered chain with a heartbeat every 3 steps: every move
	// stops on the heartbeat's step.
	{"heartbeat-in-move", []byte{2, 0, 0, 57, 63, 12, 0, 0, 0, 0, 40, 0, 0}},
}

// Three seeds for the closed form (stride), committed under testdata/fuzz
// as stride-*: late worlds whose moves run past strideAfter rounds,
// each built around one thing the closed form must get right. Each
// chain runs 61 occurrences, with one RunUntil at the origin and a fork
// there.
var skipStrideSeeds = []struct {
	name string
	seed []byte
}{
	// A lone π/3 chain from 2^20 − 24: its one move of 59 occurrences
	// crosses 2^20 in closed form, past the first 16.
	{"binade-crossing", []byte{0x3f, 0, 7, 59, 63, 0, 0, 0, 0, 0, 0, 0, 0}},
	// A lone 1.25 chain from 2^51 − 24: past 2^51 the ulp is 0.5, so
	// every add is a half-ulp tie that rounds to even.
	{"half-ulp-tie", []byte{0x4f, 0, 2, 59, 63, 0, 0, 0, 0, 0, 0, 0, 0}},
	// Three π/3 chains a quarter apart from 2^20 − 24, the middle one
	// granted 41 at a time, a heartbeat every 64 steps: 16 rounds one add
	// at a time, then the rest in closed form, across 2^20, cut short by
	// the middle chain's credit and by the heartbeat inside a round.
	{"long-group", []byte{0x33, 2, 7, 59, 63, 0, 0, 7, 59, 40, 0, 1, 7, 59, 63, 0, 2, 0, 0, 0, 0, 0, 0}},
}

// Eight seeds for merges taken in closed form (mergeStride), committed
// under testdata/fuzz as merge-long-*: late worlds in which a unit-period
// chain and one of period √2 (1.5 on the last-tie seed, π/3 on the
// lockstep ones), 61 occurrences each, merge for longer than
// strideAfter runs, each built around one thing the closed form must
// get right; closed says whether it takes any. Runs of these periods
// are at most two occurrences long, the √2 one jittered by 0.3 too.
var skipMergeStrideSeeds = []struct {
	name   string
	seed   []byte
	closed bool
}{
	// Periods 1 and √2 from 10^6, where √2 rounds: a move cut at the
	// second bound, 10^6 + 15.75, then one the unit chain's spent credit
	// ends.
	{"two-periods", []byte{0x2f, 1, 0, 59, 63, 0, 0, 6, 59, 63, 0, 2, 0, 1, 0, 0, 0, 0, 63, 0, 0}, true},
	// The √2 chain is granted 30 at a time: its credit runs out while the
	// unit chain still holds some, so its next occurrence ends the move.
	{"credit-spent", []byte{0x2f, 1, 0, 59, 63, 0, 0, 6, 59, 29, 0, 2, 0, 0, 0, 0, 0, 0}, true},
	// A heartbeat every 64 steps: once strideAfter runs are taken, what
	// is left of the first move reaches past the heartbeat's step, and
	// the loop takes it up to there; the second's ends before it.
	{"heartbeat", []byte{0x23, 1, 0, 59, 63, 0, 0, 6, 59, 63, 0, 2, 0, 0, 0, 0, 0, 0}, true},
	// Periods 1 and 1.5 from 10^6 and 10^6 + 0.5, the unit chain granted
	// 30 at a time: the first move's two last occurrences fall apart,
	// the second's both at 10^6 + 59, where only IDs order them.
	{"last-tie", []byte{0x2f, 1, 0, 59, 29, 0, 0, 3, 59, 63, 0, 2, 0, 0, 0, 0, 0, 0}, true},
	// Periods 1 and √2 from 2^20 − 24: the closed form crosses 2^20.
	{"binade-crossing", []byte{0x3f, 1, 0, 59, 63, 0, 0, 6, 59, 63, 0, 2, 0, 0, 0, 0, 0, 0}, true},
	// Periods 1 and π/3 from 2^52 − 23.5, where both add one ulp of 0.5:
	// in lockstep, so never apart at a last occurrence, the chain booked
	// first popping first at every instant. They part at 2^52: 2^52 − 0.5
	// + 1 is a half-ulp tie that rounds down to 2^52, + π/3 rounds up to
	// 2^52 + 1, where the π/3 chain's spent credit (23 at a time) ends the
	// move. So the unit chain takes one more, and its occurrence at the π/3
	// chain's last time pops first: only IDs order the two, and the bound
	// at 2^52 records the π/3 chain's key.
	{"lockstep-later-first", []byte{0x6f, 1, 0, 59, 63, 0, 2, 7, 59, 22, 0, 2, 0, 2, 0, 0, 0, 0, 40, 0, 0, 56, 0, 0}, false},
	// The same, with the π/3 chain booked first: its last occurrence pops
	// first.
	{"lockstep-earlier-first", []byte{0x6f, 1, 7, 59, 22, 0, 2, 0, 59, 63, 0, 2, 0, 2, 0, 0, 0, 0, 40, 0, 0, 56, 0, 0}, false},
	// As two-periods without the bounds, the √2 chain jittered: its
	// factors are drawn as the merge takes its occurrences, so the loop
	// takes them all.
	{"jitter", []byte{0x2f, 1, 0, 59, 63, 0, 0, 6, 59, 63, 12, 2, 0, 0, 0, 0, 0, 0}, false},
}

// skipJitterFrac is the jittered chains' fraction, and skipJitterSeed the
// seed of the one stream all of a world's jittered chains share.
const (
	skipJitterFrac = 0.3
	skipJitterSeed = 1
)

// skipRec is one observation of a differential run.
type skipRec struct {
	T     float64
	Label string
	N     int64
}

// skipShot is a one-shot event of a world: what it does is fixed when
// it is created, and the event's slot indexes the world's table of
// them, which a fork copies.
type skipShot struct {
	label  string
	kind   int // see fireShot
	target int
}

// skipChain is the owner of one chain. In the armed world it
// grants the engine credit; in the reference world the same credit is
// kept in virt and consumed by executing a callback that does nothing
// but book the next occurrence — the engine's credit forced to zero.
// A solo chain arms with ArmSolo. A late chain books the occurrence
// after an executed one 1.875 periods on, not one: a period the engine
// is given need not be the delay the pending occurrence was booked at,
// so a chain of the head's period can lie past fl(t_head + P). A
// jittered chain jitters every delay it books with a draw from the
// world's stream, and arms with ArmJitter; the reference draws inside
// the callback, one occurrence at a time.
type skipChain struct {
	w       *skipWorld
	idx     int
	slot    int32 // the chain's slot; 0 once cancelled, until restarted
	solo    bool
	jitter  bool
	period  float64
	total   int64 // occurrences the chain runs for
	grant   int64 // most credit it hands out at once
	onReal  int   // side effect of an executed occurrence
	late    bool
	done    int64 // occurrences accounted for
	granted int64
	virt    int64
}

type skipWorld struct {
	eng   *Engine
	armed bool
	// bound is the bound of the RunUntil in progress (+Inf under Run):
	// the reference needs it to say which solo occurrences are alone.
	bound  float64
	chains []*skipChain
	shots  []skipShot
	log    []skipRec
}

// shotClass is the class of a world's one-shots.
var shotClass = NewClass("sim.shot")

func (w *skipWorld) rec(label string, n int64) {
	w.log = append(w.log, skipRec{T: w.eng.Now(), Label: label, N: n})
}

// p is the chain's state; the table's slot 0, which is never armed,
// stands for a cancelled chain.
func (c *skipChain) p() *Periodic { return c.w.eng.Periodic(c.slot) }

func (c *skipChain) left() int64 {
	if c.w.armed {
		return c.p().Credit()
	}
	return c.virt
}

// settle is the owner's wake: count what the span covered, withdraw
// the rest.
func (c *skipChain) settle() {
	c.done += c.granted - c.left()
	c.granted, c.virt = 0, 0
	c.p().Disarm()
}

func (c *skipChain) count() int64 { return c.done + c.granted - c.left() }

// arm grants the engine n occurrences.
func (c *skipChain) arm(n int64) {
	switch p := c.p(); {
	case c.jitter:
		p.ArmJitter(c.period, n)
	case c.solo:
		p.ArmSolo(c.period, n)
	default:
		p.Arm(c.period, n)
	}
}

// book books the chain's next occurrence d seconds on, jittered.
func (c *skipChain) book(d float64) {
	if c.jitter {
		d = c.w.eng.Jitter(d)
	}
	c.w.eng.AfterTick(&c.slot, c, d)
}

// alone reports whether the occurrence being executed was alone at its
// instant: no other pending entry — cancelled ones count, they sit in
// the queue until popped — shares its time, and the RunUntil bound lies
// beyond it.
func (w *skipWorld) alone() bool {
	for i := range w.eng.queue {
		if w.eng.queue[i].t == w.eng.now {
			return false
		}
	}
	return w.eng.now < w.bound
}

// Tick is the chain's callback.
func (c *skipChain) Tick() {
	w := c.w
	if c.virt > 0 {
		// Reference world, steady occurrence: book the next, nothing else.
		// This is where the solo rule is stated independently of the
		// engine: the armed world runs this callback for a steady
		// occurrence of a solo chain exactly when it was not alone.
		if c.solo && !w.alone() {
			w.rec(fmt.Sprintf("tie/chain%d", c.idx), c.count())
		}
		c.virt--
		c.book(c.period)
		return
	}
	if left := c.p().Credit(); left > 0 {
		// Armed world, credit still standing: a solo occurrence that was
		// not alone. It is steady all the same — book the next one and
		// leave the engine the rest of the credit.
		w.rec(fmt.Sprintf("tie/chain%d", c.idx), c.count())
		c.book(c.period)
		if left > 1 {
			c.arm(left - 1)
		}
		return
	}
	c.settle()
	c.done++
	w.rec(fmt.Sprintf("chain%d", c.idx), c.done)
	if c.done >= c.total {
		return
	}
	switch c.onReal {
	case 1: // zero-delay push, ordered before the next occurrence
		w.shot(w.eng.Now(), false, skipShot{})
	case 2: // wake the neighbour
		w.chains[(c.idx+1)%len(w.chains)].settle()
	}
	delay := c.period
	if c.late {
		delay *= 1.875
	}
	c.book(delay)
	if left := c.total - c.done - 1; left >= 1 {
		n := min(left, c.grant)
		c.granted = n
		if w.armed {
			c.arm(n)
		} else {
			c.virt = n
		}
	}
}

// shot schedules a one-shot in either band and keeps its descriptor.
func (w *skipWorld) shot(at float64, front bool, s skipShot) {
	s.label = fmt.Sprintf("shot%d", len(w.shots)+1)
	w.shots = append(w.shots, s)
	slot := int32(len(w.shots) - 1)
	if front {
		w.eng.PostFront(at, shotClass, slot)
	} else {
		w.eng.Post(at, shotClass, slot)
	}
}

func (w *skipWorld) fireShot(slot int32) {
	s := w.shots[slot]
	c := w.chains[s.target%len(w.chains)]
	w.rec(s.label, c.count())
	switch s.kind {
	case 1: // wake
		c.settle()
	case 2: // cancel through the slot
		c.cancel()
	case 3: // zero-delay pushes, one per band
		w.shot(w.eng.Now(), false, skipShot{})
		w.shot(w.eng.Now(), true, skipShot{})
	case 4: // restart a chain that ended or was cancelled
		if c.p().id == 0 && c.done < c.total {
			w.eng.AfterTick(&c.slot, c, c.period)
		}
	}
}

// cancel wakes the chain and cancels it, giving up its slot.
func (c *skipChain) cancel() {
	c.settle()
	c.w.eng.FreeTick(&c.slot)
}

// fork clones the world mid-run: the engine — chains, queue and
// stream with it — and the world's tables; then each forked owner
// takes over what it owns. The parent first records each chain's
// credit left, equal in both worlds. owe, when not nil, is handed the
// fork before it is checked, to drop one registration.
func (w *skipWorld) fork(t *testing.T, owe func(f *skipWorld)) (*skipWorld, error) {
	for _, c := range w.chains {
		w.rec(fmt.Sprintf("fork/chain%d", c.idx), c.left())
	}
	f := &skipWorld{
		eng: w.eng.Fork(), armed: w.armed, bound: w.bound,
		shots: slices.Clone(w.shots),
		log:   slices.Clone(w.log),
	}
	for _, c := range w.chains {
		cp := *c
		cp.w = f
		f.chains = append(f.chains, &cp)
	}
	f.own()
	if owe != nil {
		owe(f)
	}
	return f, f.eng.CheckFork()
}

// own registers the world's handler and takes over its chains, on an
// engine whose tables the world already holds.
func (w *skipWorld) own() {
	w.eng.Handle(shotClass, fireFunc(w.fireShot))
	for _, c := range w.chains {
		if c.slot != 0 {
			w.eng.TakeTick(c.slot, c)
		}
	}
}

// pending records every pending entry's (t, id), in pop order: the set
// the engine holds must be the one the executing engine would.
func (w *skipWorld) pending() {
	q := slices.Clone(w.eng.queue)
	slices.SortFunc(q, func(a, b event) int {
		if a.less(&b) {
			return -1
		}
		return 1
	})
	for _, ev := range q {
		w.log = append(w.log, skipRec{T: ev.t, Label: "pending", N: ev.id})
	}
}

// heartbeat records the progress hook's firings: same virtual times
// and step counts in both worlds, whatever the executed share.
func (w *skipWorld) heartbeat(every int64) {
	w.eng.EveryProcessed(every, func(now float64, processed, skipped int64) {
		w.log = append(w.log, skipRec{T: now, Label: "beat", N: processed + skipped})
	})
}

// skipOffset decodes a chain's first delay from one byte. The low three
// bits pick a point on the quarter grid; the top two can move it off
// the grid by one to four ulps up or down — so that two chains a < b
// meet where fl(a+P) == fl(b+P), a tie made by rounding alone — or by
// an irrational step.
func skipOffset(b int) float64 {
	off, steps := float64(b%8)/4, 1+b>>3&3
	switch b >> 6 {
	case 1:
		for range steps {
			off = math.Nextafter(off, math.Inf(1))
		}
	case 2:
		for range steps {
			if off > 0 {
				off = math.Nextafter(off, math.Inf(-1))
			}
		}
	case 3:
		off += float64(steps) * (math.Sqrt2 - 1) / 4
	}
	return off
}

// skipBuild decodes the head of a script — the heartbeat, the chains
// and the one-shots — into a fresh world, and returns it with the
// decoder of the rest and the heartbeat's spacing.
func skipBuild(data []byte, armed bool) (w *skipWorld, next func() int, every int64) {
	next = func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	w = &skipWorld{eng: NewEngine(), armed: armed, bound: math.Inf(1)}
	w.eng.SetJitter(NewRand(skipJitterSeed), skipJitterFrac)
	w.eng.Handle(shotClass, fireFunc(w.fireShot))
	b := next()
	every = int64(1 + b%16)
	if h := b >> 4; h != 0 { // a late world
		every *= 16
		w.eng.RunUntil(skipOrigins[(h-1)%len(skipOrigins)]) // nothing pending: sets the clock
	}
	origin := w.eng.Now()
	w.heartbeat(every)
	for i, n := 0, 1+next()%6; i < n; i++ {
		c := &skipChain{
			w: w, idx: i,
			period: skipPeriods[next()%len(skipPeriods)],
			total:  int64(2 + next()%60),
			grant:  int64(1 + next()%64),
		}
		flags := next()
		c.onReal, c.late, c.jitter = flags%3, flags/6%2 == 1, flags/12%2 == 1
		c.solo = flags/3%2 == 1 && !c.jitter // a traced jittered instance never arms
		w.chains = append(w.chains, c)
		w.eng.AfterTick(&c.slot, c, skipOffset(next()))
	}
	for i, n := 0, next()%24; i < n; i++ {
		at, kind := origin+float64(next())/4, next()
		w.shot(at, kind&8 != 0, skipShot{kind: kind % 5, target: next()})
	}
	return w, next, every
}

// skipRun decodes data into a script and runs it in one world; it
// returns the parent's and the fork's observations, each closed by the
// engine's final state, and how many steps the parent's engine took by
// itself.
func skipRun(t *testing.T, data []byte, armed bool) (parent, fork []skipRec, skipped int64) {
	w, next, every := skipBuild(data, armed)
	// A handful of RunUntil bounds on the same grid, an outside wake or
	// cancel after some of them, one fork on the way.
	bound := w.eng.Now() // the world's origin
	var f *skipWorld
	for i, n, forkAt := 0, 1+next()%6, next()%6; i < n; i++ {
		bound += float64(next()%64) / 4
		w.bound = bound
		w.eng.RunUntil(bound)
		for _, c := range w.chains {
			w.rec(fmt.Sprintf("bound%d/chain%d", i, c.idx), c.count())
		}
		w.pending()
		switch c := w.chains[next()%len(w.chains)]; next() % 4 {
		case 1:
			c.settle()
		case 2:
			c.cancel()
		}
		if f == nil && i == forkAt%n {
			var err error
			if f, err = w.fork(t, nil); err != nil {
				t.Fatal(err)
			}
			f.heartbeat(every)
		}
	}
	finish := func(w *skipWorld) []skipRec {
		w.bound = math.Inf(1)
		w.eng.Run()
		for _, c := range w.chains {
			w.rec(fmt.Sprintf("end/chain%d", c.idx), c.count())
		}
		w.rec("nextID", w.eng.nextID)
		w.rec("steps", w.eng.Processed()+w.eng.Skipped())
		// Where the shared stream stands: its position in the register
		// and the value it draws next, which two lineages that drew
		// different counts do not share.
		w.rec("stream tap", int64(w.eng.jitter.tap))
		w.rec("stream next", int64(math.Float64bits(w.eng.jitter.Fork().Float64())))
		return w.log
	}
	return finish(w), finish(f), w.eng.Skipped()
}

// FuzzSkipDifferential runs a generated script — periodic chains in
// lockstep, on a shared quarter grid and off it (a few ulps off it
// included, so that rounding makes ties inside a move), out of phase
// within one period so that they move as a group, of several periods
// so that they merge, some of them solo, some jittered from one shared
// stream,
// one-shot and front-band events, zero-delay pushes from callbacks,
// wakes, cancels through the handle, RunUntil bounds with outside
// interference and a fork mid-span, at times near 0 or, in a late world,
// far from it, where long moves take occurrences in closed form across
// binade edges and half-ulp ties — once with the chains arming their
// handles and once with the same credit executed occurrence by
// occurrence. Every callback that does anything must run at the same
// time in the same order, the ID allocator must end where it would
// have, the (time, ID) keys pending at each bound must be the
// reference's, executed plus skipped steps must equal the reference's
// executed count, and the stream must have drawn as many values as the
// reference's twin — in the parent and in the fork. For a solo chain the
// reference also says, from the queue it sees, which steady occurrences
// were not alone at their instant ("tie" records); the armed engine
// must have run the callback for exactly those and taken the others.
//
// Plain `go test` replays the seeds below and the committed corpus
// under testdata/fuzz/FuzzSkipDifferential.
func FuzzSkipDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add(skipLockstepSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ap, af, _ := skipRun(t, data, true)
		rp, rf, _ := skipRun(t, data, false)
		if !reflect.DeepEqual(ap, rp) {
			t.Fatalf("parent lineage diverges from the reference:\n%s", skipDiff(ap, rp))
		}
		if !reflect.DeepEqual(af, rf) {
			t.Fatalf("forked lineage diverges from the reference:\n%s", skipDiff(af, rf))
		}
	})
}

// skipDiff renders the first divergence of two logs with some context.
func skipDiff(a, r []skipRec) string {
	i := 0
	for i < len(a) && i < len(r) && a[i] == r[i] {
		i++
	}
	lo := max(0, i-3)
	return fmt.Sprintf("first difference at record %d\narmed     %+v\nreference %+v",
		i, a[lo:min(len(a), i+3)], r[lo:min(len(r), i+3)])
}

// TestSkipDifferentialSkips guards the differential against passing
// vacuously: on the lockstep seed the armed world must actually let
// the engine take most occurrences.
func TestSkipDifferentialSkips(t *testing.T) {
	ap, _, skipped := skipRun(t, skipLockstepSeed, true)
	rp, _, refSkipped := skipRun(t, skipLockstepSeed, false)
	if !reflect.DeepEqual(ap, rp) {
		t.Fatalf("lockstep seed diverges:\n%s", skipDiff(ap, rp))
	}
	// All but the first and last occurrence of each chain are steady.
	if skipped != 3*40 || refSkipped != 0 {
		t.Fatalf("skipped %d steps armed and %d in the reference, want %d and 0", skipped, refSkipped, 3*40)
	}
	var beats int
	var steps int64
	for _, r := range ap {
		switch r.Label {
		case "beat":
			beats++
		case "steps":
			steps = r.N
		}
	}
	if steps != 3*42 || beats == 0 {
		t.Fatalf("steps = %d (want %d), %d heartbeats", steps, 3*42, beats)
	}
}

// TestSkipDifferentialSoloTies guards the solo seeds against passing
// vacuously: each must see its solo chain tie at the instant the seed
// was built around — the callback run with credit standing, agreed by
// the reference — and be taken by the engine elsewhere.
func TestSkipDifferentialSoloTies(t *testing.T) {
	for _, c := range []struct {
		name string
		seed []byte
		at   float64 // where chain0 meets the entry
	}{
		{"plain chain", skipSoloPlainSeed, 7},
		{"cancelled entry", skipSoloCancelledSeed, 12},
		{"front-band entry", skipSoloFrontSeed, 5},
	} {
		ap, af, skipped := skipRun(t, c.seed, true)
		rp, rf, _ := skipRun(t, c.seed, false)
		if !reflect.DeepEqual(ap, rp) || !reflect.DeepEqual(af, rf) {
			t.Fatalf("%s: diverges:\n%s\n%s", c.name, skipDiff(ap, rp), skipDiff(af, rf))
		}
		tied := slices.ContainsFunc(ap, func(r skipRec) bool { return r.Label == "tie/chain0" && r.T == c.at })
		if !tied || skipped == 0 {
			t.Errorf("%s: tie at %v: %v, %d steps skipped — want true and some", c.name, c.at, tied, skipped)
		}
	}
}

// skipMoves is what skipGroupMoves counts.
type skipMoves struct {
	groups   int // steps that advanced two or more chains without a callback
	ties     int // pairs of chains such a step left at one time, apart before it
	jittered int // steps that advanced a jittered chain without a callback
	joined   int // group moves a jittered chain took part in
	mixed    int // group moves of chains of two periods, or with a jittered chain
	strided  int // steps that took occurrences in closed form (Engine.Strided)
	// Of the strided steps: those that moved a chain across a power of
	// two, those that left a moved chain where its period is a half-ulp
	// tie, and group moves of k ≥ 2.
	crossed, tied, stridedGroups int
	// Moves of chains of two periods: those taken partly in closed form,
	// and of them those that crossed a power of two and those that left a
	// moved chain without credit; and those of 2·strideAfter occurrences
	// or more taken by the loop alone, and of them those that ended on the
	// heartbeat's step.
	stridedMerges, crossedMerges, spentMerges int
	loopMerges, beatMerges                    int
}

// halfUlpTie reports whether t + p would be a tie in t's binade: p/u
// ends in exactly one half, u being the ulp of t's binade.
func halfUlpTie(t, p float64) bool {
	if !(t >= math.SmallestNonzeroFloat64*(1<<53)) {
		return false
	}
	q := p / ulpOf(t)
	return q-math.Floor(q) == 0.5
}

// skipGroupMoves replays the world of data — its chains and one-shots,
// not its bounds, wakes or fork — by Step alone, and counts its moves
// (see skipMoves): group moves of k ≥ 2, the ties rounding made inside
// them, the moves of jittered chains, and the merges among the group
// moves.
func skipGroupMoves(data []byte) (m skipMoves) {
	w, _, every := skipBuild(data, true)
	at := func(c *skipChain) float64 {
		for i := range w.eng.queue {
			if ev := &w.eng.queue[i]; ev.class == tick && ev.slot == c.slot {
				return ev.t
			}
		}
		return math.NaN()
	}
	before := make([]float64, len(w.chains))
	credit := make([]int64, len(w.chains))
	for {
		for i, c := range w.chains {
			before[i], credit[i] = at(c), c.p().Credit()
		}
		processed, skipped, strided := w.eng.Processed(), w.eng.Skipped(), w.eng.Strided()
		if !w.eng.Step() {
			return m
		}
		if w.eng.Processed() != processed {
			continue
		}
		var moved []*skipChain
		var from []float64
		jittered, periods := false, false
		for i, c := range w.chains {
			if c.p().Credit() < credit[i] {
				moved, from = append(moved, c), append(from, before[i])
				jittered = jittered || c.jitter
				periods = periods || c.period != moved[0].period
			}
		}
		if jittered {
			m.jittered++
		}
		merge := periods
		if w.eng.Strided() > strided {
			m.strided++
			crossed, tied, spent := false, false, false
			for i, c := range moved {
				_, e0 := math.Frexp(from[i])
				_, e1 := math.Frexp(at(c))
				crossed = crossed || e0 != e1
				tied = tied || halfUlpTie(at(c), c.period)
				spent = spent || c.p().Credit() == 0
			}
			if crossed {
				m.crossed++
			}
			if tied {
				m.tied++
			}
			if len(moved) >= 2 {
				m.stridedGroups++
			}
			if merge {
				m.stridedMerges++
				if crossed {
					m.crossedMerges++
				}
				if spent {
					m.spentMerges++
				}
			}
		} else if merge && w.eng.Skipped()-skipped >= 2*strideAfter {
			m.loopMerges++
			if (w.eng.Processed()+w.eng.Skipped())%every == 0 {
				m.beatMerges++
			}
		}
		if len(moved) < 2 {
			continue
		}
		m.groups++
		if jittered {
			m.joined++
		}
		if jittered || periods {
			m.mixed++
		}
		for a := range moved {
			for b := a + 1; b < len(moved); b++ {
				if from[a] != from[b] && at(moved[a]) == at(moved[b]) {
					m.ties++
				}
			}
		}
	}
}

// TestSkipDifferentialGroups guards the group seeds against passing
// vacuously: each must agree with the reference, and its chains must
// actually move together — on the ulp seed, into a tie that rounding
// makes inside the move.
func TestSkipDifferentialGroups(t *testing.T) {
	for _, c := range skipGroupSeeds {
		ap, af, skipped := skipRun(t, c.seed, true)
		rp, rf, _ := skipRun(t, c.seed, false)
		if !reflect.DeepEqual(ap, rp) || !reflect.DeepEqual(af, rf) {
			t.Fatalf("%s: diverges:\n%s\n%s", c.name, skipDiff(ap, rp), skipDiff(af, rf))
		}
		m := skipGroupMoves(c.seed)
		if m.groups == 0 || skipped == 0 {
			t.Errorf("%s: %d group moves of two chains or more, %d steps skipped — want some of each", c.name, m.groups, skipped)
		}
		if c.name == "ulp-collision" && m.ties == 0 {
			t.Errorf("%s: no move made a tie by rounding", c.name)
		}
	}
}

// TestSkipDifferentialJitter guards the jitter seeds against passing
// vacuously: each must agree with the reference, the engine must take
// jittered occurrences by itself — on the group seed within group
// moves — and each seed must show the thing it was built around.
func TestSkipDifferentialJitter(t *testing.T) {
	for _, c := range skipJitterSeeds {
		ap, af, skipped := skipRun(t, c.seed, true)
		rp, rf, _ := skipRun(t, c.seed, false)
		if !reflect.DeepEqual(ap, rp) || !reflect.DeepEqual(af, rf) {
			t.Fatalf("%s: diverges:\n%s\n%s", c.name, skipDiff(ap, rp), skipDiff(af, rf))
		}
		m := skipGroupMoves(c.seed)
		if m.jittered == 0 || skipped == 0 {
			t.Errorf("%s: %d jittered moves, %d steps skipped — want some of each", c.name, m.jittered, skipped)
		}
		count := func(log []skipRec, label string, pred func(skipRec) bool) int {
			n := 0
			for _, r := range log {
				if r.Label == label && pred(r) {
					n++
				}
			}
			return n
		}
		any := func(skipRec) bool { return true }
		var ok bool
		switch c.name {
		case "interleaving":
			// Each chain executes only its first and last occurrence and
			// has 57 steady ones between: the two merge, so a handful of
			// moves takes them all — more would mean the chains cut each
			// other's moves short.
			ok = m.jittered <= 10
		case "beside-group":
			ok = m.groups > 0 && m.joined > 0
		case "wake-mid-span":
			ok = count(ap, "shot1", any) == 1 && count(ap, "chain1", any) > 5
		case "fork-mid-span":
			ok = count(ap, "fork/chain0", func(r skipRec) bool { return r.N > 0 }) == 1
		case "heartbeat-in-move":
			ok = count(ap, "beat", any) > 10 && m.jittered > 10
		}
		if !ok {
			t.Errorf("%s: the seed no longer shows what it was built around (%+v)", c.name, m)
		}
	}
}

// TestSkipDifferentialMerge guards the merge seeds against passing
// vacuously: each must agree with the reference, its chains must
// actually merge, and each seed must show the thing it was built around.
func TestSkipDifferentialMerge(t *testing.T) {
	for _, c := range skipMergeSeeds {
		ap, af, skipped := skipRun(t, c.seed, true)
		rp, rf, _ := skipRun(t, c.seed, false)
		if !reflect.DeepEqual(ap, rp) || !reflect.DeepEqual(af, rf) {
			t.Fatalf("%s: diverges:\n%s\n%s", c.name, skipDiff(ap, rp), skipDiff(af, rf))
		}
		m := skipGroupMoves(c.seed)
		if m.mixed == 0 || skipped == 0 {
			t.Errorf("%s: %d merges of two periods or with a jittered chain, %d steps skipped — want some of each", c.name, m.mixed, skipped)
		}
		executed := func(label string) int {
			return len(slices.DeleteFunc(slices.Clone(ap), func(r skipRec) bool { return r.Label != label }))
		}
		var ok bool
		switch c.name {
		case "two-periods":
			ok = m.groups <= 10
		case "jitter-beside-plain":
			ok = m.joined > 0
		case "ulp-tie":
			// The unit chain's first add lands on the other's second
			// occurrence only by rounding.
			from := skipOffset(int(c.seed[11]))
			ok = m.ties > 0 && from != 0.5 && from+1 == 1.5
		case "heartbeat-mid-merge":
			ok = executed("beat") > 10 && m.mixed > 10
		case "credit-spent-mid-merge":
			ok = executed("chain1") > 5
		}
		if !ok {
			t.Errorf("%s: the seed no longer shows what it was built around (%+v)", c.name, m)
		}
	}
}

// TestSkipDifferentialStride guards the stride seeds against passing
// vacuously: each must agree with the reference, the engine must take
// occurrences in closed form (Engine.Strided), and each seed must show
// the thing it was built around.
func TestSkipDifferentialStride(t *testing.T) {
	for _, c := range skipStrideSeeds {
		ap, af, skipped := skipRun(t, c.seed, true)
		rp, rf, _ := skipRun(t, c.seed, false)
		if !reflect.DeepEqual(ap, rp) || !reflect.DeepEqual(af, rf) {
			t.Fatalf("%s: diverges:\n%s\n%s", c.name, skipDiff(ap, rp), skipDiff(af, rf))
		}
		m := skipGroupMoves(c.seed)
		if m.strided == 0 || skipped == 0 {
			t.Errorf("%s: %d moves in closed form, %d steps skipped — want some of each", c.name, m.strided, skipped)
		}
		var ok bool
		switch c.name {
		case "binade-crossing":
			ok = m.crossed > 0
		case "half-ulp-tie":
			ok = m.tied > 0
		case "long-group":
			ok = m.stridedGroups > 0 && m.crossed > 0
		}
		if !ok {
			t.Errorf("%s: the seed no longer shows what it was built around (%+v)", c.name, m)
		}
	}
}

// TestSkipDifferentialMergeStride guards the merge-long seeds against
// passing vacuously: each must agree with the reference, a merge of its
// two chains must take occurrences in closed form (a Strided rise in a
// move of chains of two periods) — but none on a lockstep seed, whose
// chains are never apart at a last occurrence, nor on the jitter seed —
// and each seed must show the thing it was built around. A move of
// 2·strideAfter occurrences or more has run strideAfter runs of these
// periods, so one the loop took alone left the closed form for a tie, a
// heartbeat or a jittered member.
func TestSkipDifferentialMergeStride(t *testing.T) {
	for _, c := range skipMergeStrideSeeds {
		ap, af, skipped := skipRun(t, c.seed, true)
		rp, rf, _ := skipRun(t, c.seed, false)
		if !reflect.DeepEqual(ap, rp) || !reflect.DeepEqual(af, rf) {
			t.Fatalf("%s: diverges:\n%s\n%s", c.name, skipDiff(ap, rp), skipDiff(af, rf))
		}
		m := skipGroupMoves(c.seed)
		if (m.stridedMerges > 0) != c.closed || skipped == 0 {
			t.Errorf("%s: %d merges of two periods in closed form (want some: %t), %d steps skipped", c.name, m.stridedMerges, c.closed, skipped)
		}
		var ok bool
		switch {
		case strings.HasPrefix(c.name, "lockstep-"), c.name == "last-tie":
			ok = m.loopMerges > m.beatMerges
		case c.name == "jitter":
			ok = m.loopMerges > m.beatMerges && m.jittered > 0
		case c.name == "two-periods":
			ok = m.spentMerges > 0
		case c.name == "credit-spent":
			ok = m.spentMerges > 1
		case c.name == "heartbeat":
			ok = m.beatMerges > 0
		case c.name == "binade-crossing":
			ok = m.crossedMerges > 0
		}
		if !ok {
			t.Errorf("%s: the seed no longer shows what it was built around (%+v)", c.name, m)
		}
	}
}

// nopTick is the owner of chains whose callbacks do nothing.
var nopTick = tickFunc(func() {})

// staggered returns an engine holding k armed chains of the period
// whose occurrences fall period/k apart, and their slots.
func staggered(k int, period float64, credit int64) (*Engine, []int32) {
	e := NewEngine()
	slots := make([]int32, k)
	for j := range slots {
		e.AfterTick(&slots[j], nopTick, period*float64(j)/float64(k))
		e.Periodic(slots[j]).Arm(period, credit)
	}
	return e, slots
}

// rearm is the owner of a chain that, each time it executes, books its
// next occurrence one period on and grants the engine credit more.
type rearm struct {
	e      *Engine
	slot   int32
	period float64
	credit int64
}

func (c *rearm) Tick() {
	c.e.AfterTick(&c.slot, c, c.period)
	c.e.Periodic(c.slot).Arm(c.period, c.credit)
}

// long returns an engine holding k chains of period √2 whose
// occurrences fall √2/k apart, each granting credit at a time for
// ever, and their slots.
func long(k int, credit int64) (*Engine, []int32) {
	e := NewEngine()
	slots := make([]int32, k)
	for j := range slots {
		c := &rearm{e: e, period: math.Sqrt2, credit: credit}
		e.AfterTick(&c.slot, c, c.period*float64(j)/float64(k))
		e.Periodic(c.slot).Arm(c.period, credit)
		slots[j] = c.slot
	}
	return e, slots
}

// mergeLong returns an engine holding two chains that merge, of
// period 1 from 0 and of period √2 from 0.5, each granting credit at a
// time for ever, and their slots.
func mergeLong(credit int64) (*Engine, []int32) {
	e := NewEngine()
	slots := make([]int32, 2)
	for j, period := range []float64{1, math.Sqrt2} {
		c := &rearm{e: e, period: period, credit: credit}
		e.AfterTick(&c.slot, c, float64(j)/2)
		e.Periodic(c.slot).Arm(c.period, credit)
		slots[j] = c.slot
	}
	return e, slots
}

// mixed returns an engine holding three armed chains that merge: of
// period 1 from 0, of period 1.5 from 1/3, and jittered of period 1.25
// from 2/3; and their slots.
func mixed(credit int64) (*Engine, []int32) {
	e := NewEngine()
	e.SetJitter(NewRand(1), 0.3)
	slots := make([]int32, 3)
	for j, period := range []float64{1, 1.5, 1.25} {
		e.AfterTick(&slots[j], nopTick, float64(j)/3)
		if p := e.Periodic(slots[j]); j == 2 {
			p.ArmJitter(period, credit)
		} else {
			p.Arm(period, credit)
		}
	}
	return e, slots
}

// TestSkipGroupAllocs pins a group move — round-robin, a merge of two
// periods and a jittered chain, and two long moves that take most of
// their occurrences in closed form, round-robin and merged — at zero
// allocations, on a warm engine and as the first move of a fresh fork:
// the move's scratch is part of the Engine, not grown on demand. A lone
// jittered chain's move allocates nothing either.
func TestSkipGroupAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		make   func() (*Engine, []int32)
		span   float64 // virtual time one move covers
		min    int64   // occurrences each move takes, at least
		closed bool    // most of them in closed form
	}{
		// Every member moves on every RunUntil.
		{"group", func() (*Engine, []int32) { return staggered(3, 1, 1<<40) }, 1, 3, false},
		// Periods 1, 1.5 and ≈ 1.25 take ≈ 2.47 per unit, at least 2 on a
		// fork's first move.
		{"mixed", func() (*Engine, []int32) { return mixed(1 << 40) }, 1, 2, false},
		// Three chains of period √2 over 100 s: 212 occurrences a move, 48
		// one add at a time and the rest in closed form.
		{"long", func() (*Engine, []int32) { return staggered(3, math.Sqrt2, 1<<40) }, 100, 210, true},
		// Periods 1 and √2 over 100 s: 170 or 171 occurrences a move, the
		// first strideAfter runs one add at a time and the rest in closed
		// form.
		{"merge-long", func() (*Engine, []int32) { return mergeLong(1 << 40) }, 100, 170, true},
	} {
		e, slots := c.make()
		if a := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + c.span) }); a != 0 {
			t.Errorf("%s: a move on a warm engine allocates %v", c.name, a)
		}
		// AllocsPerRun runs once more to warm up; each run is one move.
		if e.Processed() != 0 || e.Moves() != 101 || e.Skipped() < c.min*101 {
			t.Fatalf("%s: processed %d, %d moves took %d: the chains did not move together", c.name, e.Processed(), e.Moves(), e.Skipped())
		}
		if c.closed && e.Strided() < e.Skipped()/2 {
			t.Fatalf("%s: %d of %d occurrences taken in closed form", c.name, e.Strided(), e.Skipped())
		}
		forks := make([]*Engine, 11) // AllocsPerRun's warm-up run takes the first
		for i := range forks {
			f := e.Fork()
			for _, slot := range slots {
				f.TakeTick(slot, nopTick)
			}
			if err := f.CheckFork(); err != nil {
				t.Fatal(err)
			}
			forks[i] = f
		}
		i := 0
		if a := testing.AllocsPerRun(len(forks)-1, func() { forks[i].RunUntil(forks[i].Now() + c.span); i++ }); a != 0 {
			t.Errorf("%s: the first move of a fresh fork allocates %v", c.name, a)
		}
		for _, f := range forks {
			if f.Processed() != 0 || f.Skipped() < e.Skipped()+c.min {
				t.Fatalf("%s: fork skipped %d (parent %d): no move", c.name, f.Skipped(), e.Skipped())
			}
		}
	}
	// A lone jittered chain moves, drawing from the stream as it goes.
	j := NewEngine()
	rnd := NewRand(1)
	j.SetJitter(rnd, 0.5)
	var slot int32
	j.AfterTick(&slot, nopTick, 0)
	j.Periodic(slot).ArmJitter(1, 1<<40)
	if a := testing.AllocsPerRun(100, func() { j.RunUntil(j.Now() + 10) }); a != 0 {
		t.Errorf("a jittered move allocates %v", a)
	}
	if drew := drawsOf(rnd, 1, j.Skipped()); j.Processed() != 0 || j.Skipped() < 100*5 || drew != j.Skipped() {
		t.Fatalf("processed %d, skipped %d, drew %d: the jittered chain did not move by itself", j.Processed(), j.Skipped(), drew)
	}
}

// TestForkRefusesWhatItOwes is the fork's mutation test: a forked world
// that drops one class registration, or one chain's takeover, or whose
// parent holds a pending closure, is refused with an error naming what
// is owed — by CheckFork, and by the fork's first step, before any
// event runs. The complete fork runs to the end.
func TestForkRefusesWhatItOwes(t *testing.T) {
	seed := skipGroupSeeds[3].seed // cancelled-member: chains, one-shots of both bands
	for _, c := range []struct {
		name string
		owe  func(f *skipWorld)
		want string // in the error; "" for none
	}{
		{"complete", nil, ""},
		{"class registration dropped", func(f *skipWorld) {
			f.eng.handlers[shotClass] = nil
		}, `class "sim.shot"`},
		{"tick takeover dropped", func(f *skipWorld) {
			for _, c := range f.chains {
				if c.slot != 0 && c.p().id != 0 {
					f.eng.ticks.At(c.slot).owner = nil
					return
				}
			}
			t.Fatal("scenario broken: no chain pending at the fork")
		}, "never took over tick"},
		{"closure pending", func(f *skipWorld) {
			f.eng.queue = append(f.eng.queue, event{t: math.MaxFloat64, id: math.MaxInt64, class: closure})
		}, "closure event"},
	} {
		w, _, _ := skipBuild(seed, true)
		w.eng.RunUntil(6)
		f, err := w.fork(t, c.owe)
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			f.eng.Run()
			if f.eng.Processed() <= w.eng.Processed() {
				t.Fatalf("%s: the fork ran nothing", c.name)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: CheckFork = %v, want an error naming %s", c.name, err, c.want)
		}
		// The fork was refused but stays unchecked: stepping it checks
		// again, and refuses before its first event.
		processed, now := f.eng.Processed(), f.eng.Now()
		func() {
			defer func() {
				r := recover()
				if e, ok := r.(error); !ok || !strings.Contains(e.Error(), c.want) {
					t.Fatalf("%s: first step panicked with %v, want the error naming %s", c.name, r, c.want)
				}
			}()
			f.eng.Step()
		}()
		if f.eng.Processed() != processed || f.eng.Now() != now {
			t.Fatalf("%s: a refused fork ran an event", c.name)
		}
	}
}

// BenchmarkSkipStaggered is the engine's cost per step — one op is one
// step, executed or taken by the engine — with k armed chains of one
// period out of phase, or the three chains of mixed that merge, and one
// plain event every eight periods to end a move as the rest of a replay
// does; and, as long/k, k chains of period √2 granted 10⁴ occurrences at
// a time with nothing else pending, whose moves run long enough to be
// taken mostly in closed form, and as merge-long the two chains of
// mergeLong, of periods 1 and √2, granted the same.
func BenchmarkSkipStaggered(b *testing.B) {
	for _, c := range []struct {
		name  string
		make  func() (*Engine, []int32)
		quiet bool // no plain event
	}{
		{"k=1", func() (*Engine, []int32) { return staggered(1, 1, 1<<40) }, false},
		{"k=3", func() (*Engine, []int32) { return staggered(3, 1, 1<<40) }, false},
		{"k=8", func() (*Engine, []int32) { return staggered(8, 1, 1<<40) }, false},
		{"mixed", func() (*Engine, []int32) { return mixed(1 << 40) }, false},
		{"long/k=1", func() (*Engine, []int32) { return long(1, 1e4) }, true},
		{"long/k=3", func() (*Engine, []int32) { return long(3, 1e4) }, true},
		{"merge-long", func() (*Engine, []int32) { return mergeLong(1e4) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, _ := c.make()
			if !c.quiet {
				var plain func()
				plain = func() { e.After(8, plain) }
				e.At(7.9, plain)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for e.Processed()+e.Skipped() < int64(b.N) {
				e.Step()
			}
		})
	}
}
