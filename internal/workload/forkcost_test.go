package workload

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/sched"
)

// forkHistory is the completed-job counts a session is forked after.
var forkHistory = []int{1_000, 10_000, 100_000}

// atHistories replays one light-load trace (the queue stays empty, so
// the live state at each stop is a few running jobs) and calls fn at
// the first submission instant by which each count of forkHistory has
// completed.
func atHistories(tb testing.TB, fn func(completed int, s *Session)) {
	tb.Helper()
	last := forkHistory[len(forkHistory)-1]
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: last + 100, Nodes: 4, MeanInterarrival: 60})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := sched.New("easy")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSchedSession(sc, p)
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	for _, n := range forkHistory {
		for ; s.Controller().Records.Count() < n; i++ {
			if i == len(sc.Subs) {
				tb.Fatalf("the trace completed %d jobs, want %d", s.Controller().Records.Count(), n)
			}
			s.RunUntil(sc.Subs[i].At)
		}
		if err := s.Err(); err != nil {
			tb.Fatal(err)
		}
		fn(n, s)
	}
}

// TestSessionForkAllocsFlatInHistory pins what a fork costs against
// what the session has done: the bytes one Session.Fork allocates after
// 100k completed jobs stay within 2x of those after 1k. A fork shares
// the completed records as frozen history; copying them made the cost
// grow with the count (≈ 80 bytes a record).
func TestSessionForkAllocsFlatInHistory(t *testing.T) {
	const forks = 5
	bytes := make(map[int]float64)
	atHistories(t, func(completed int, s *Session) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range forks {
			if _, err := s.Fork(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		bytes[completed] = float64(m1.TotalAlloc-m0.TotalAlloc) / forks
		t.Logf("after %d completed jobs (%d running): %.0f bytes a fork", completed, s.Controller().RunningLen(), bytes[completed])
	})
	first, last := forkHistory[0], forkHistory[len(forkHistory)-1]
	if bytes[last] > 2*bytes[first] {
		t.Errorf("a fork after %d completed jobs allocates %.0f bytes, after %d %.0f: want within 2x",
			last, bytes[last], first, bytes[first])
	}
}

// BenchmarkSessionForkHistory measures one Session.Fork after each
// count of completed jobs.
func BenchmarkSessionForkHistory(b *testing.B) {
	atHistories(b, func(completed int, s *Session) {
		b.Run("completed="+strconv.Itoa(completed), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Fork(); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
