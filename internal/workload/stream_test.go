package workload

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/slurm"
)

// TestSWFReaderSourceMatchesScenario: streaming a trace file yields
// the same submissions as the materializing parser, including skip
// accounting and MaxJobs truncation.
func TestSWFReaderSourceMatchesScenario(t *testing.T) {
	jobs := SyntheticSWF{Seed: 7, Jobs: 50, Nodes: 4}.Generate()
	// Make some records unusable so the skip path is exercised.
	jobs[3].Run = -1
	jobs[11].Procs = 0
	jobs[20].Procs = 16 * 100 // wider than the cluster
	text := FormatSWF(jobs)

	o := SWFOptions{Nodes: 4, MaxJobs: 30}
	sc, skipped, err := SWFScenario(jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSWFReaderSource(strings.NewReader(text), o)
	var got []Submission
	for {
		sub, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, sub)
	}
	if len(got) != len(sc.Subs) {
		t.Fatalf("streamed %d submissions, materialized %d", len(got), len(sc.Subs))
	}
	for i := range got {
		if got[i].At != sc.Subs[i].At || got[i].Job.Name != sc.Subs[i].Job.Name ||
			got[i].Job.Nodes != sc.Subs[i].Job.Nodes || got[i].Job.Iters != sc.Subs[i].Job.Iters ||
			got[i].Job.Cfg != sc.Subs[i].Job.Cfg || got[i].Job.Walltime != sc.Subs[i].Job.Walltime {
			t.Fatalf("submission %d differs: %+v vs %+v", i, got[i], sc.Subs[i])
		}
	}
	// MaxJobs cut the stream before the trace ended, so the streamed
	// skip count may lag the full-trace count but never exceed it.
	if src.Dropped().Total() > skipped {
		t.Errorf("streamed skipped %d, materialized %d", src.Dropped().Total(), skipped)
	}
}

// fixedSource serves a fixed submission list (test helper).
type fixedSource struct {
	subs []Submission
	i    int
}

func (s *fixedSource) Next() (Submission, bool, error) {
	if s.i >= len(s.subs) {
		return Submission{}, false, nil
	}
	sub := s.subs[s.i]
	s.i++
	return sub, true, nil
}

// TestStreamToleratesOutOfOrderRecords: real SWF archives occasionally
// contain records whose submit time precedes the previous record's;
// the streaming replay treats them as arriving at the stream position
// instead of failing.
func TestStreamToleratesOutOfOrderRecords(t *testing.T) {
	job := func(name string) slurm.Job {
		sub, ok := anyMappedJob(name)
		if !ok {
			t.Fatal("helper produced no job")
		}
		return sub
	}
	src := &fixedSource{subs: []Submission{
		{At: 100, Job: job("j00001")},
		{At: 50, Job: job("j00002")}, // out of order
		{At: 200, Job: job("j00003")},
	}}
	p, _ := sched.New("fcfs")
	res := RunSchedStream(Scenario{Nodes: 4}, src, p)
	if res.Err != nil {
		t.Fatalf("out-of-order stream failed: %v", res.Err)
	}
	if got := res.Records.Count(); got != 3 {
		t.Fatalf("replayed %d jobs, want 3", got)
	}
}

// anyMappedJob builds a small valid job for the streaming tests.
func anyMappedJob(name string) (slurm.Job, bool) {
	m := newSWFMapper(SWFOptions{Nodes: 4})
	sub, ok := m.Map(SWFJob{ID: 1, Submit: 0, Run: 30, Procs: 4, ReqTime: 60, Status: 1}, 0)
	if !ok {
		return slurm.Job{}, false
	}
	j := sub.Job
	j.Name = name
	return j, true
}

// TestStreamedReplayHeapBounded: a lazily sourced replay folds job
// records into aggregates and keeps one pending submission, so the
// heap it needs is set by the scheduler backlog and not by the trace
// length: 25k, 100k and 200k jobs all leave ≈ 5 MB held, where
// retaining the 100k records holds 33 MB. HeapSys alone never
// shrinks, so it would read whatever an earlier test in this binary
// needed; releasing the idle heap first and subtracting what is still
// released afterwards reads this replay's own footprint.
func TestStreamedReplayHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-job replay")
	}
	const jobs = 100000
	p, _ := sched.New("fcfs")
	debug.FreeOSMemory()
	res := RunSchedStream(Scenario{Nodes: 4}, SyntheticSWF{Seed: 1, Jobs: jobs, Nodes: 4}.Source(), p)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Records.Count(); got != jobs {
		t.Errorf("replayed %d of %d jobs", got, jobs)
	}
	if n := len(res.Records.Jobs); n != 0 {
		t.Errorf("streamed replay retained %d job records", n)
	}
	if mb := float64(m.HeapSys-m.HeapReleased) / (1 << 20); mb > 16 {
		t.Errorf("streamed %d-job replay holds %.1f MB of heap, want under 16: memory is not bounded by the backlog", jobs, mb)
	}
}
