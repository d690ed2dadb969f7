package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRunEachArtifact executes every artifact generator end to end
// (output goes to stdout; correctness of the numbers is asserted in
// internal/workload — here we guard the CLI wiring).
func TestRunEachArtifact(t *testing.T) {
	for _, f := range workload.Figures() {
		if err := run(f.ID); err != nil {
			t.Errorf("run(%q): %v", f.ID, err)
		}
	}
}

// TestRunUnknownIDIsAnError: an -id no artifact has is an error that
// names it and lists the valid ones, not an empty run.
func TestRunUnknownIDIsAnError(t *testing.T) {
	err := run("bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "table1, fig2") {
		t.Fatalf("run(\"bogus\") = %v, want an error naming the id and listing the valid ones", err)
	}
}

func TestExportTracesToTempDir(t *testing.T) {
	outDir = t.TempDir()
	defer func() { outDir = "" }()
	if err := run("fig5"); err != nil {
		t.Fatal(err)
	}
}

// TestFigure2Golden pins `figures -id fig2` byte for byte. The golden
// is the stdout of the binary built before the protocol log became a
// consumer of the probe bus (obs.Protocol); regenerate it only after an
// intentional change of the Figure-2 protocol or its wording.
func TestFigure2Golden(t *testing.T) {
	var got bytes.Buffer
	if err := figure2(&got, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fig2 diverged from the golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestArtifactsMatchManifest pins everything the traced figures write,
// byte for byte: the stdout of `figures -id fig5|fig13|fig14` and every
// file `figures -out DIR -svg DIR` leaves in DIR (.csv, .prv, .pcf,
// .row and the SVGs). testdata/artifacts.sha256 was generated by the
// binary built at c8ee5e6, when a traced run still executed every
// iteration and the tracer stored one record per segment. Its two
// fig13-*.row lines were regenerated when WriteROW began to list rows in
// application order, as the .prv numbers them (nest is application 1,
// coreneuron 2). Regenerate it only after an intentional change to a
// model or a writer.
func TestArtifactsMatchManifest(t *testing.T) {
	manifest, err := os.ReadFile("testdata/artifacts.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed manifest line %q", line)
		}
		want[name] = sum
	}
	got := map[string]string{}
	for _, id := range []string{"fig5", "fig13", "fig14"} {
		out := captureStdout(t, func() error { return run(id) })
		got["stdout/"+id] = fmt.Sprintf("%x", sha256.Sum256(out))
	}
	dir := t.TempDir()
	outDir, svgDir = filepath.Join(dir, "out"), filepath.Join(dir, "svg")
	defer func() { outDir, svgDir = "", "" }()
	captureStdout(t, func() error { return run("") })
	for _, sub := range []string{"out", "svg"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[sub+"/"+e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	for name, sum := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: in the manifest, not written", name)
		case g != sum:
			t.Errorf("%s: sha256 %s, manifest has %s", name, g, sum)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written, not in the manifest", name)
		}
	}
}
