package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	e.After(3, func() { order = append(order, 3) })
	e.After(1, func() { order = append(order, 1) })
	e.After(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	var times []float64
	var rec func()
	n := 0
	rec = func() {
		times = append(times, e.Now())
		n++
		if n < 4 {
			e.After(1.5, rec)
		}
	}
	e.After(1, rec)
	e.Run()
	want := []float64{1, 2.5, 4, 5.5}
	if len(times) != 4 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.After(1, func() { ran = true })
	e.Cancel(id)
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Cancelling twice or after run is harmless.
	e.Cancel(id)
	e.Cancel(9999)
}

func TestCancelAfterFireLeaksNothing(t *testing.T) {
	e := NewEngine()
	// Long replays cancel already-fired events constantly (one per
	// job); the engine must retain no tracking state for them. The old
	// implementation inserted every cancelled ID into a map
	// unconditionally and only deleted it when the event fired — a
	// fired or unknown ID stayed forever.
	for i := 0; i < 1000; i++ {
		id := e.After(1, func() {})
		e.Run()
		e.Cancel(id)     // already executed
		e.Cancel(999999) // never existed
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("engine tracks %d events after cancelling fired/unknown IDs, want 0", n)
	}
	if cap(e.queue) > 4 {
		t.Fatalf("queue capacity grew to %d over fired-event cancels, want no growth", cap(e.queue))
	}
}

func TestCancelPendingDropsClosure(t *testing.T) {
	e := NewEngine()
	id := e.After(1, func() { t.Error("cancelled event ran") })
	e.Cancel(id)
	e.Run()
	if n := e.Pending(); n != 0 {
		t.Fatalf("queue holds %d entries after Run, want 0", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("At in the past should panic")
		}
	}()
	e.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		e.After(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(2.5)
	if len(ran) != 2 {
		t.Fatalf("ran = %v", ran)
	}
	if e.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("after Run ran = %v", ran)
	}
}

func TestRunUntilAdvancesEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.After(float64(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop", count)
	}
}

// labelClass is the tests' class: a label table's owner registers a
// handler that records the label its slot indexes.
var labelClass = NewClass("sim.label")

func TestAtFrontOrdersBeforeRegularAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []string
	labels := []string{"f1", "f2"}
	e.Handle(labelClass, fireFunc(func(slot int32) { order = append(order, labels[slot]) }))
	// Regular events scheduled FIRST, front events after: the front
	// band must still run first at the shared timestamp, FIFO within
	// itself, exactly as if the front events had been scheduled before
	// the simulation started.
	e.At(5, func() { order = append(order, "r1") })
	e.At(5, func() { order = append(order, "r2") })
	e.PostFront(5, labelClass, 0)
	e.PostFront(5, labelClass, 1)
	e.At(3, func() { order = append(order, "early") })
	e.Run()
	want := []string{"early", "f1", "f2", "r1", "r2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAtFrontChainMatchesUpfrontScheduling(t *testing.T) {
	// The streaming pattern: each front event schedules the next one.
	// The resulting execution order must equal scheduling all of them
	// up front before any regular event existed.
	times := []float64{0.5, 1, 1, 1, 2}
	run := func(stream bool) []string {
		e := NewEngine()
		var order []string
		if stream {
			e.Handle(labelClass, fireFunc(func(i int32) {
				order = append(order, fmt.Sprintf("s%d@%g", i, e.Now()))
				if int(i)+1 < len(times) {
					e.PostFront(times[i+1], labelClass, i+1)
				}
			}))
			e.PostFront(times[0], labelClass, 0)
		} else {
			for i, at := range times {
				i, at := i, at
				e.At(at, func() { order = append(order, fmt.Sprintf("s%d@%g", i, e.Now())) })
			}
		}
		// Regular simulation activity interleaved at the same instants.
		e.At(1, func() { order = append(order, "sim@1") })
		e.At(2, func() { order = append(order, "sim@2") })
		e.Run()
		return order
	}
	up, st := run(false), run(true)
	if len(up) != len(st) {
		t.Fatalf("upfront %v vs streamed %v", up, st)
	}
	for i := range up {
		if up[i] != st[i] {
			t.Fatalf("divergence at %d: upfront %v vs streamed %v", i, up, st)
		}
	}
}

// TestEventEntryIs24Bytes pins the heap entry's size: a class and a
// slot, no closure and no pointer. The heap sifts copy entries by
// value on the hottest path of the simulation.
func TestEventEntryIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 24 {
		t.Fatalf("heap entry is %d bytes, want at most 24", n)
	}
}

func TestPropertyMonotonicTime(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var times []float64
		var schedule func(depth int)
		schedule = func(depth int) {
			times = append(times, e.Now())
			if depth < 3 {
				for i := 0; i < r.Intn(3); i++ {
					e.After(r.Float64()*10, func() { schedule(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			e.After(r.Float64()*100, func() { schedule(0) })
		}
		e.Run()
		return sort.Float64sAreSorted(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(float64(i%100), func() {})
	}
	e.Run()
}
