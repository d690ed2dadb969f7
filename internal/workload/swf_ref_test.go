package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// refParseSWF is the reference SWF parser: every line goes through
// TrimSpace, Fields and ParseFloat, with no fast path. The scanner
// behind ParseSWF must agree with it on the records, or on the exact
// error, for any input (FuzzSWFParseDifferential).
func refParseSWF(r io.Reader) ([]SWFJob, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var jobs []SWFJob
	var vals [swfFields]float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != swfFields {
			return nil, fmt.Errorf("swf: line %d: %d fields, want %d", line, len(fields), swfFields)
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("swf: line %d field %d: %v", line, i+1, err)
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("swf: line %d field %d: non-finite value %q", line, i+1, f)
			}
			vals[i] = v
		}
		if vals[1] < 0 {
			return nil, fmt.Errorf("swf: line %d: negative submit time %v", line, vals[1])
		}
		procs := int(vals[4])
		if procs <= 0 {
			procs = int(vals[7])
		}
		jobs = append(jobs, SWFJob{
			ID:        int(vals[0]),
			Submit:    vals[1],
			Wait:      vals[2],
			Run:       vals[3],
			Procs:     procs,
			ReqTime:   vals[8],
			Status:    int(vals[10]),
			Partition: int(vals[15]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: %v", err)
	}
	return jobs, nil
}

// sameSWFJob compares two records bit for bit, so a negative zero the
// reference keeps must be kept.
func sameSWFJob(a, b SWFJob) bool {
	bits := func(j SWFJob) [4]uint64 {
		return [4]uint64{math.Float64bits(j.Submit), math.Float64bits(j.Wait),
			math.Float64bits(j.Run), math.Float64bits(j.ReqTime)}
	}
	return a.ID == b.ID && a.Procs == b.Procs && a.Status == b.Status &&
		a.Partition == b.Partition && bits(a) == bits(b)
}

// swfOverlongLine is one record line past the scanner's 1 MB token
// limit; both parsers must report bufio.ErrTooLong for it. It is
// generated here rather than committed to the corpus.
var swfOverlongLine = strings.Repeat("1 ", 600*1024) + "\n"

// FuzzSWFParseDifferential: ParseSWF (the in-place scanner and its
// general path) and refParseSWF accept the same records, bit for bit,
// or fail with the same error text, on any input. The committed
// corpus (testdata/fuzz/FuzzSWFParseDifferential) holds lines of
// canonical integers mixed with lines that must take the general
// path; TestSWFFuzzSeedsReachGeneralPath checks each seed has one.
func FuzzSWFParseDifferential(f *testing.F) {
	f.Add(swfOverlongLine)
	f.Fuzz(func(t *testing.T, text string) {
		got, gotErr := ParseSWF(strings.NewReader(text))
		want, wantErr := refParseSWF(strings.NewReader(text))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records, reference %d", len(got), len(want))
		}
		for i := range got {
			if !sameSWFJob(got[i], want[i]) {
				t.Fatalf("record %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

// readSWFCorpus returns the committed seeds of FuzzSWFParseDifferential
// by file name, decoding the "go test fuzz v1" string encoding.
func readSWFCorpus(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSWFParseDifferential", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	seeds := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		header, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		if header != "go test fuzz v1" || !strings.HasPrefix(arg, "string(") || !strings.HasSuffix(arg, ")") {
			t.Fatalf("%s: not a one-string corpus entry", p)
		}
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		seeds[filepath.Base(p)] = text
	}
	return seeds
}

// TestSWFFuzzSeedsReachGeneralPath: every committed seed holds a line
// scanSWFRecord declines, so the differential exercises the general
// path on each; and the generated overlong line fails both parsers on
// the scanner's limit.
func TestSWFFuzzSeedsReachGeneralPath(t *testing.T) {
	for name, text := range readSWFCorpus(t) {
		sc := bufio.NewScanner(strings.NewReader(text))
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		general := 0
		var vals [swfFields]float64
		for sc.Scan() {
			if !scanSWFRecord(sc.Bytes(), &vals) {
				general++
			}
		}
		if general == 0 {
			t.Errorf("seed %s: every line takes the fast path", name)
		}
	}
	for _, parse := range []func(io.Reader) ([]SWFJob, error){ParseSWF, refParseSWF} {
		if _, err := parse(strings.NewReader(swfOverlongLine)); err == nil || !strings.Contains(err.Error(), bufio.ErrTooLong.Error()) {
			t.Errorf("overlong line: error %v, want %v", err, bufio.ErrTooLong)
		}
	}
}

// TestScanSWFRecordFastPath pins what the in-place scan accepts: a
// record line of 18 canonical integers, separated by spaces or tabs.
func TestScanSWFRecordFastPath(t *testing.T) {
	const rec = "1 0 -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1"
	var vals [swfFields]float64
	for _, line := range []string{
		rec,
		"  " + rec + "\t",
		strings.ReplaceAll(rec, " ", "\t"),
		"999999999999999 0 -1 100 16 -1 -1 16 200 -1 1 -1 -1 -1 -1 -1 -1 -1",
	} {
		if !scanSWFRecord([]byte(line), &vals) {
			t.Errorf("fast path declined %q", line)
		}
	}
	if vals[0] != 999999999999999 || vals[3] != 100 || vals[17] != -1 {
		t.Errorf("vals = %v", vals)
	}
	for _, line := range []string{
		"",
		"; comment",
		rec + " 99",
		strings.TrimSuffix(rec, " -1"),
		"+1" + rec[1:],
		"01" + rec[1:],
		"-0" + rec[1:],
		"1.5" + rec[1:],
		"1e3" + rec[1:],
		"1000000000000000" + rec[1:],
		"1\v" + rec[2:],
		"1\u00a0" + rec[2:],
		"-" + rec[1:],
		"1-" + rec[1:],
	} {
		if scanSWFRecord([]byte(line), &vals) {
			t.Errorf("fast path accepted %q", line)
		}
	}
}

// TestFormatSWFMatchesSprintf: the appended record is byte for byte
// the fmt line FormatSWF used to print, across the values where %.0f
// and an integer print differ (signed zero, half-way fractions rounded
// to even, the ±1e15 boundary, 2^53+1, huge and non-finite values) and
// the extremes of the integer fields.
func TestFormatSWFMatchesSprintf(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -2.5, 1, -1, 100,
		1e15, -1e15, 1e15 + 1, -(1e15 + 1), 1<<53 + 1, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ints := []int{0, 1, -1, 42, math.MaxInt, math.MinInt}
	var jobs []SWFJob
	for i, v := range floats {
		n := ints[i%len(ints)]
		jobs = append(jobs, SWFJob{ID: n, Submit: v, Wait: v, Run: v, Procs: n, ReqTime: v, Status: n, Partition: n})
	}
	for _, n := range ints {
		jobs = append(jobs, SWFJob{ID: n, Submit: 3, Wait: -1, Run: 60, Procs: n, ReqTime: 120, Status: n, Partition: n})
	}
	var want strings.Builder
	want.WriteString("; synthetic SWF trace\n")
	for _, j := range jobs {
		fmt.Fprintf(&want, "%d %.0f %.0f %.0f %d -1 -1 %d %.0f -1 %d -1 -1 -1 -1 %d -1 -1\n",
			j.ID, j.Submit, j.Wait, j.Run, j.Procs, j.Procs, j.ReqTime, j.Status, j.Partition)
	}
	got := FormatSWF(jobs)
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, gotLines[i], wantLines[i])
		}
	}
}

// TestParseSWFAllocs: a record of canonical integers is parsed without
// an allocation, so ParseSWFFunc allocates as much for 10 000 records
// as for 1 000 (the scanner and its buffer, once).
func TestParseSWFAllocs(t *testing.T) {
	allocs := func(jobs int) float64 {
		text := FormatSWF(SyntheticSWF{Seed: 1, Jobs: jobs, Nodes: 4}.Generate())
		return testing.AllocsPerRun(5, func() {
			n := 0
			err := ParseSWFFunc(strings.NewReader(text), func(SWFJob) error {
				n++
				return nil
			})
			if err != nil || n != jobs {
				t.Fatalf("parsed %d of %d records: %v", n, jobs, err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("ParseSWFFunc allocates %v for 1 000 records and %v for 10 000; want equal", small, large)
	}
}
