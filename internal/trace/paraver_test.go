package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePRVHeader(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "#Paraver ") {
		t.Fatalf("header = %q", lines[0])
	}
	// Duration 10 s = 1e10 ns.
	if !strings.Contains(lines[0], "10000000000_ns") {
		t.Errorf("duration missing: %q", lines[0])
	}
	// Two applications (jobs a and b).
	if !strings.Contains(lines[0], ":2:") {
		t.Errorf("application count missing: %q", lines[0])
	}
}

func TestWritePRVRecords(t *testing.T) {
	tr := New()
	// Thread 0 runs 1..2 and idles 2..3 on CPU 3; thread 1 is removed.
	tr.AddSpan(1, 2, 1, false, []Segment{
		{Job: "a", Rank: 0, Thread: 0, CPU: 3, T1: 0.5, State: Run, IPC: 1},
		{Job: "a", Rank: 0, Thread: 1, CPU: -1, T1: 1, State: Removed},
	}, nil)
	var buf bytes.Buffer
	if err := tr.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 { // header + run + idle (removed skipped)
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	// One node of four CPUs: the records address CPU 4.
	if !strings.Contains(lines[0], ":1(4):1:") {
		t.Errorf("header = %q", lines[0])
	}
	// Run record: state 1, cpu 4 (1-based), times relative to span lo.
	if lines[1] != "1:4:1:1:1:0:1000000000:1" {
		t.Errorf("run record = %q", lines[1])
	}
	if lines[2] != "1:4:1:1:1:1000000000:2000000000:0" {
		t.Errorf("idle record = %q", lines[2])
	}
}

func TestWritePCFAndROW(t *testing.T) {
	tr := sampleTracer()
	var pcf bytes.Buffer
	if err := tr.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pcf.String(), "STATES_COLOR") {
		t.Errorf("pcf missing colors:\n%s", pcf.String())
	}
	var row bytes.Buffer
	if err := tr.WriteROW(&row); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(row.String(), "\n"), "\n")
	// 3 distinct (job,rank,thread) rows in the sample.
	if lines[0] != "LEVEL THREAD SIZE 3" {
		t.Errorf("row header = %q", lines[0])
	}
	if lines[1] != "a.1.1" || lines[3] != "b.1.1" {
		t.Errorf("row labels = %v", lines[1:])
	}
}

func TestWritePRVRecordsSorted(t *testing.T) {
	tr := New()
	add(tr, Segment{Job: "a", Thread: 0, CPU: 0, T0: 5, T1: 6, State: Run})
	add(tr, Segment{Job: "a", Thread: 1, CPU: 1, T0: 1, T1: 2, State: Run})
	var buf bytes.Buffer
	tr.WritePRV(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if !strings.Contains(lines[1], ":0:") {
		t.Errorf("records not time-sorted: %q before %q", lines[1], lines[2])
	}
}

// TestWritePRVDeclaresEveryCPU: the header declares as many CPUs as the
// records address — the highest id + 1 — not how many distinct ids
// appear.
func TestWritePRVDeclaresEveryCPU(t *testing.T) {
	tr := New()
	add(tr, Segment{Job: "a", Thread: 0, CPU: 0, T0: 0, T1: 1, State: Run})
	add(tr, Segment{Job: "a", Thread: 1, CPU: 5, T0: 0, T1: 1, State: Run})
	add(tr, Segment{Job: "a", Thread: 2, CPU: -1, T0: 0, T1: 1, State: Removed})
	var buf bytes.Buffer
	if err := tr.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if !strings.Contains(lines[0], ":1(6):1:") {
		t.Errorf("header = %q, want one node of 6 CPUs", lines[0])
	}
	if lines[2] != "1:6:1:1:2:0:1000000000:1" {
		t.Errorf("record = %q", lines[2])
	}
	buf.Reset()
	if err := New().WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "#Paraver (01/01/18 at 00:00):0_ns:1(1):0:\n"; buf.String() != want {
		t.Errorf("empty trace: %q, want %q", buf.String(), want)
	}
}

// TestWriteROWFollowsApplicationOrder: the .row labels are in the .prv
// object order — applications numbered by first appearance, not by
// name — so Paraver puts each job's name on its own threads.
func TestWriteROWFollowsApplicationOrder(t *testing.T) {
	tr := New()
	add(tr, Segment{Job: "nest", Rank: 1, Thread: 0, CPU: 0, T0: 0, T1: 1, State: Run})
	add(tr, Segment{Job: "coreneuron", Rank: 0, Thread: 1, CPU: 1, T0: 0, T1: 1, State: Run})
	add(tr, Segment{Job: "nest", Rank: 0, Thread: 1, CPU: 2, T0: 1, T1: 2, State: Run})
	add(tr, Segment{Job: "coreneuron", Rank: 0, Thread: 0, CPU: 3, T0: 1, T1: 2, State: Run})
	var prv, row bytes.Buffer
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteROW(&row); err != nil {
		t.Fatal(err)
	}
	if head := strings.SplitN(prv.String(), "\n", 2)[0]; !strings.HasSuffix(head, ":2:2(2:1,1:1),1(2:1)") {
		t.Fatalf("prv header = %q, want nest as application 1", head)
	}
	want := "LEVEL THREAD SIZE 4\nnest.1.2\nnest.2.1\ncoreneuron.1.1\ncoreneuron.1.2\n"
	if row.String() != want {
		t.Errorf("row =\n%s\nwant\n%s", row.String(), want)
	}
}
