package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// TestParseSWFRejectsMalformed: a malformed record fails the trace
// with its line (and field) in the error, on the materialised path and
// on the streamed SWFReaderSource alike. A non-finite field is
// malformed: an inf or nan submit time cannot be scheduled, and a nan
// runtime would replay as a one-iteration job.
func TestParseSWFRejectsMalformed(t *testing.T) {
	cases := map[string]struct{ text, err string }{
		"too-few-fields":  {"1 0 -1 100 16\n", "swf: line 1: 5 fields, want 18"},
		"non-numeric":     {"1 0 -1 abc 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "swf: line 1 field 4: "},
		"negative-submit": {"1 -5 -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "swf: line 1: negative submit time -5"},
		"extra-fields":    {"1 0 -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1 99\n", "swf: line 1: 19 fields, want 18"},
		"inf-submit":      {"1 inf -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "swf: line 1 field 2: "},
		"nan-submit":      {"1 nan -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "swf: line 1 field 2: "},
		"nan-run":         {"; header\n1 0 -1 NaN 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n", "swf: line 2 field 4: "},
		"-inf-reqtime":    {"1 0 -1 100 16 -1 -1 16 -inf -1 1 -1 -1 -1 -1 -1 -1 -1\n", "swf: line 1 field 9: "},
	}
	for name, c := range cases {
		if _, err := ParseSWF(strings.NewReader(c.text)); err == nil || !strings.HasPrefix(err.Error(), c.err) {
			t.Errorf("%s: ParseSWF(%q) error %v, want %q", name, c.text, err, c.err)
		}
		src := NewSWFReaderSource(strings.NewReader(c.text), SWFOptions{})
		if _, _, err := src.Next(); err == nil || !strings.HasPrefix(err.Error(), c.err) {
			t.Errorf("%s: SWFReaderSource(%q) error %v, want %q", name, c.text, err, c.err)
		}
	}
}

func TestParseSWFAcceptsCommentsAndRecords(t *testing.T) {
	text := "; MaxNodes: 4\n\n" +
		"1 0 -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
		"2 30 -1 50 -1 -1 -1 8 80 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	jobs, err := ParseSWF(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("parsed %d jobs, want 2", len(jobs))
	}
	if jobs[0].Procs != 16 || jobs[0].Run != 100 || jobs[0].ReqTime != 200 {
		t.Errorf("job 1 = %+v", jobs[0])
	}
	// Allocated processors unknown (-1): falls back to requested.
	if jobs[1].Procs != 8 || jobs[1].Submit != 30 {
		t.Errorf("job 2 = %+v", jobs[1])
	}
}

// TestSyntheticSWFRoundTrip: the generator's trace survives
// Format→Parse→Scenario unchanged, and generation is deterministic.
func TestSyntheticSWFRoundTrip(t *testing.T) {
	p := SyntheticSWF{Seed: 7, Jobs: 50}
	a := p.Generate()
	b := p.Generate()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("generated %d/%d jobs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	parsed, err := ParseSWF(strings.NewReader(FormatSWF(a)))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(a) {
		t.Fatalf("round-trip lost jobs: %d vs %d", len(parsed), len(a))
	}
	for i := range a {
		if parsed[i] != a[i] {
			t.Fatalf("round-trip changed job %d: %+v vs %+v", i, parsed[i], a[i])
		}
	}
	sc, skipped, err := SWFScenario(a, SWFOptions{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(sc.Subs) != 50 {
		t.Fatalf("scenario: %d subs, %d skipped", len(sc.Subs), skipped)
	}
	for _, sub := range sc.Subs {
		if sub.Job.Walltime <= 0 {
			t.Fatalf("job %s lost its walltime estimate", sub.Job.Name)
		}
	}
}

// TestSyntheticSWFSingleNode: a 1-node cluster must not panic the
// generator's wide-job branch (regression).
func TestSyntheticSWFSingleNode(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 2, Jobs: 40, Nodes: 1, MeanInterarrival: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range sc.Subs {
		if sub.Job.Nodes != 1 {
			t.Fatalf("job %s spans %d nodes on a 1-node cluster", sub.Job.Name, sub.Job.Nodes)
		}
	}
	if res := RunSchedSet(sc, sched.PolicySet{Default: "malleable-expand"}); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestSyntheticSWFRejectsNonFiniteMean: a NaN or infinite
// inter-arrival mean is an error naming the field, materialised and
// streamed alike, instead of a submission at a non-finite time.
func TestSyntheticSWFRejectsNonFiniteMean(t *testing.T) {
	for _, m := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := SyntheticSWF{Seed: 1, Jobs: 20, MeanInterarrival: m}
		if _, err := SyntheticSWFScenario(p); err == nil || !strings.Contains(err.Error(), "MeanInterarrival") {
			t.Errorf("mean %v: SyntheticSWFScenario error = %v", m, err)
		}
		if _, _, err := p.Source().Next(); err == nil || !strings.Contains(err.Error(), "MeanInterarrival") {
			t.Errorf("mean %v: Source().Next error = %v", m, err)
		}
	}
}

// TestNodeCountsValidated: a negative node count, or one past
// hwmodel.MaxNodes, is an error naming Nodes — generated, mapped and
// streamed alike — where it used to select the default (or to run out
// of memory).
func TestNodeCountsValidated(t *testing.T) {
	text := FormatSWF(SyntheticSWF{Seed: 1, Jobs: 20, Nodes: 4}.Generate())
	// Each row is refused by the generator (materialized and streamed)
	// and, when it sets a mapping field, by the trace mapping too; the
	// error names the field.
	for _, tc := range []struct {
		p    SyntheticSWF
		o    SWFOptions
		want string
	}{
		{SyntheticSWF{Nodes: -2}, SWFOptions{Nodes: -2}, "Nodes"},
		{SyntheticSWF{Nodes: 3000000}, SWFOptions{Nodes: 3000000}, "Nodes"},
		// A negative length or truncation used to replay everything.
		{SyntheticSWF{Jobs: -7}, SWFOptions{MaxJobs: -7}, "Jobs"},
		{SyntheticSWF{CancelRate: 2}, SWFOptions{}, "CancelRate"},
		{SyntheticSWF{CancelRate: -0.1}, SWFOptions{}, "CancelRate"},
		{SyntheticSWF{FailRate: math.NaN()}, SWFOptions{}, "FailRate"},
		{SyntheticSWF{MeanInterarrival: -5}, SWFOptions{}, "MeanInterarrival"},
	} {
		p := tc.p
		p.Seed = 1
		if p.Jobs == 0 {
			p.Jobs = 20
		}
		if _, err := SyntheticSWFScenario(p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: SyntheticSWFScenario error = %v", tc.p, err)
		}
		if _, _, err := p.Source().Next(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Source().Next error = %v", tc.p, err)
		}
		if tc.o.Nodes == 0 && tc.o.MaxJobs == 0 {
			continue
		}
		if _, _, err := SWFScenario(SyntheticSWF{Seed: 1, Jobs: 20}.Generate(), tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: SWFScenario error = %v", tc.o, err)
		}
		if _, _, err := NewSWFReaderSource(strings.NewReader(text), tc.o).Next(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: NewSWFReaderSource(...).Next error = %v", tc.o, err)
		}
	}
}

func TestSWFScenarioSkipsUnusable(t *testing.T) {
	jobs := []SWFJob{
		{ID: 1, Submit: 0, Run: -1, Procs: 16, Status: 1},                 // no runtime
		{ID: 2, Submit: 0, Run: 100, Procs: 0, Status: 1},                 // no width
		{ID: 3, Submit: 0, Run: 100, Procs: 16 * 100, Status: 1},          // wider than cluster
		{ID: 4, Submit: 10, Run: 100, Procs: 16, ReqTime: 120, Status: 1}, // fine
	}
	sc, skipped, err := SWFScenario(jobs, SWFOptions{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 3 || len(sc.Subs) != 1 {
		t.Fatalf("subs=%d skipped=%d", len(sc.Subs), skipped)
	}
	if _, _, err := SWFScenario(jobs[:3], SWFOptions{Nodes: 2}); err == nil {
		t.Error("all-unusable trace should error")
	}
}

// TestSWFReplayAllPolicies replays a small synthetic trace under every
// sched policy and sanity-checks the records.
func TestSWFReplayAllPolicies(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 3, Jobs: 60, Nodes: 2, MeanInterarrival: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sched.Names() {
		res := RunSchedSet(sc, sched.PolicySet{Default: name})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if len(res.Records.Jobs) != len(sc.Subs) {
			t.Fatalf("%s: %d of %d jobs completed", name, len(res.Records.Jobs), len(sc.Subs))
		}
		st := SchedStatsOf(sc, res)
		if st.Makespan <= 0 || st.MeanResponse <= 0 {
			t.Errorf("%s: degenerate stats %v", name, st)
		}
	}
}

// TestMalleableBeatsEASYOnMeanWait is the tentpole's acceptance
// criterion on the bundled benchmark scenario: shrinking running
// malleable jobs through DROM admits queued work earlier than any
// rigid backfilling can.
func TestMalleableBeatsEASYOnMeanWait(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: 200, Nodes: 4, MeanInterarrival: 30})
	if err != nil {
		t.Fatal(err)
	}
	stats := func(name string) metrics.SchedStats {
		res := RunSchedSet(sc, sched.PolicySet{Default: name})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		return SchedStatsOf(sc, res)
	}
	easy := stats("easy")
	fcfs := stats("fcfs")
	shrink := stats("malleable-shrink")
	expand := stats("malleable-expand")
	t.Logf("mean wait: fcfs=%.1fs easy=%.1fs shrink=%.1fs expand=%.1fs",
		fcfs.MeanWait, easy.MeanWait, shrink.MeanWait, expand.MeanWait)
	if easy.MeanWait >= fcfs.MeanWait {
		t.Errorf("EASY (%.1fs) should not wait longer than FCFS (%.1fs)", easy.MeanWait, fcfs.MeanWait)
	}
	if shrink.MeanWait >= easy.MeanWait {
		t.Errorf("malleable-shrink mean wait %.1fs, want below EASY %.1fs", shrink.MeanWait, easy.MeanWait)
	}
	if expand.MeanWait >= easy.MeanWait {
		t.Errorf("malleable-expand mean wait %.1fs, want below EASY %.1fs", expand.MeanWait, easy.MeanWait)
	}
	// Wait alone is gameable by admitting everything on a sliver of
	// CPUs; the full malleable policy must also beat EASY end-to-end.
	if expand.MeanResponse >= easy.MeanResponse {
		t.Errorf("malleable-expand mean response %.1fs, want below EASY %.1fs",
			expand.MeanResponse, easy.MeanResponse)
	}
}

// TestSWFJobNameMatchesSprintf: the mapper's job names are byte for
// byte what fmt's "j%05d" gives — at every name of the first chunks a
// replay maps, their first and last among them; across the padding
// boundary at 100000; and after a non-sequential idx, which renders a
// chunk from its own record.
func TestSWFJobNameMatchesSprintf(t *testing.T) {
	m := newSWFMapper(SWFOptions{})
	name := func(n, chunkFrom int) {
		t.Helper()
		if got, want := m.name(n), fmt.Sprintf("j%05d", n); got != want {
			t.Errorf("name(%d) = %q, want %q", n, got, want)
		}
		if m.nameLo != chunkFrom {
			t.Errorf("name(%d) from the chunk at %d, want %d", n, m.nameLo, chunkFrom)
		}
	}
	for n := 1; n <= 3*swfNameChunk+1; n++ { // a replay's records are 1-based
		name(n, 1+(n-1)/swfNameChunk*swfNameChunk)
	}
	for n := 99990; n <= 100010; n++ { // 99999, 100000 and 100001 in one chunk
		name(n, 99990)
	}
	for _, c := range []struct{ n, chunkFrom int }{
		{7, 7}, {5, 5}, {6, 5}, {5 + swfNameChunk - 1, 5}, {5 + swfNameChunk, 5 + swfNameChunk},
		{100000, 100000}, {100001, 100000}, {99999, 99999}, {100000, 99999},
		{9999, 9999}, {10000, 9999}, {25000, 25000},
		{1234567, 1234567}, {0, 0}, {9, 0}, {10, 0},
	} {
		name(c.n, c.chunkFrom)
	}
}
