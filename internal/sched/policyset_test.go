package sched

import "testing"

// TestParsePolicySet covers the set grammar: bare names, pairs, the
// mixed form, alias canonicalization and the error cases.
func TestParsePolicySet(t *testing.T) {
	ps, err := ParsePolicySet("easy")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.ByPartition) != 0 || ps.Default != "easy" {
		t.Errorf("bare form = %+v", ps)
	}
	if name, ok := ps.PolicyFor("anything"); !ok || name != "easy" {
		t.Errorf("PolicyFor(anything) = %q, %v", name, ok)
	}

	ps, err = ParsePolicySet("batch=easy,fat=shrink")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.ByPartition) == 0 || ps.Default != "" {
		t.Errorf("pair form = %+v", ps)
	}
	// Aliases canonicalize at parse time.
	if name, _ := ps.PolicyFor("fat"); name != "malleable-shrink" {
		t.Errorf("fat policy = %q, want canonical malleable-shrink", name)
	}
	if got, want := ps.String(), "batch=easy,fat=malleable-shrink"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if _, ok := ps.PolicyFor("gpu"); ok {
		t.Error("PolicyFor(gpu) should fail without a default")
	}
	if _, err := ps.NewFor("gpu"); err == nil {
		t.Error("NewFor(gpu) should fail without a default")
	}

	// Whitespace around separators and '=' is tolerated on both sides.
	ps, err = ParsePolicySet("batch = easy, fat = fcfs")
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := ps.PolicyFor("batch"); !ok || name != "easy" {
		t.Errorf("spaced pair: PolicyFor(batch) = %q, %v", name, ok)
	}

	ps, err = ParsePolicySet("easy,fat=malleable")
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := ps.PolicyFor("batch"); name != "easy" {
		t.Errorf("default policy = %q", name)
	}
	if name, _ := ps.PolicyFor("fat"); name != "malleable-expand" {
		t.Errorf("fat policy = %q", name)
	}
	if got, want := ps.String(), "easy,fat=malleable-expand"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}

	for _, bad := range []string{
		"", "bogus", "fat=bogus", "easy,fcfs", "fat=easy,fat=fcfs", "=easy",
	} {
		if _, err := ParsePolicySet(bad); err == nil {
			t.Errorf("ParsePolicySet(%q) should fail", bad)
		}
	}
}

// TestPolicySetNewFor: instances are fresh per call (the scratch-
// buffer contract forbids sharing one instance across partitions).
func TestPolicySetNewFor(t *testing.T) {
	ps, err := ParsePolicySet("malleable-shrink")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ps.NewFor("batch")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ps.NewFor("fat")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("NewFor returned the same instance twice")
	}
	if a.Name() != "malleable-shrink" || b.Name() != "malleable-shrink" {
		t.Errorf("names = %q, %q", a.Name(), b.Name())
	}
}

// TestEffectiveWalltime pins the shared unknown-walltime fallback.
func TestEffectiveWalltime(t *testing.T) {
	if got := EffectiveWalltime(120); got != 120 {
		t.Errorf("EffectiveWalltime(120) = %v", got)
	}
	for _, w := range []float64{0, -1} {
		if got := EffectiveWalltime(w); got != DefaultWalltime {
			t.Errorf("EffectiveWalltime(%v) = %v, want DefaultWalltime", w, got)
		}
	}
}
