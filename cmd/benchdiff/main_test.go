package main

import (
	"strings"
	"testing"
)

const baseDoc = `{
  "sched_replay_100k": {
    "policies": [
      {"policy": "fcfs", "jobs": 100, "sched_cycles": 200, "sim_steps": 5000, "sim_events": 1000,
       "us_per_cycle": 10.0, "allocs_per_cycle": 12.0, "mean_wait_s": 5.5, "makespan_s": 900}
    ]
  },
  "sched_replay_1m": {
    "replay": {"policy": "fcfs", "jobs": 1000, "sched_cycles": 2000, "sim_events": 9000,
       "us_per_cycle": 9.0, "allocs_per_cycle": 11.0, "mean_wait_s": 1.5, "makespan_s": 8000}
  },
  "sched_spillover": {
    "policies": [
      {"policy": "batch=easy,fat=malleable-shrink", "jobs": 500, "sched_cycles": 900,
       "sim_events": 4000, "us_per_cycle": 8.0, "allocs_per_cycle": 10.0,
       "mean_wait_s": 3.5, "makespan_s": 700, "spilled": 40}
    ]
  }
}`

func TestDiffClean(t *testing.T) {
	findings, _, err := diff([]byte(baseDoc), []byte(baseDoc), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("identical docs produced findings: %v", findings)
	}
}

func TestDiffCatchesDecisionChange(t *testing.T) {
	cand := strings.Replace(baseDoc, `"sched_cycles": 200`, `"sched_cycles": 201`, 1)
	cand = strings.Replace(cand, `"mean_wait_s": 5.5`, `"mean_wait_s": 5.6`, 1)
	findings, _, err := diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want cycle + wait regressions", findings)
	}
	for _, f := range findings {
		if !strings.Contains(f, "decisions changed") {
			t.Errorf("finding %q should flag a decision change", f)
		}
	}
}

// TestDiffStepsAndEventsExact: the step count is a decision outcome,
// the executed share of it an engine property; both are pinned.
func TestDiffStepsAndEventsExact(t *testing.T) {
	for field, why := range map[string]string{
		"sim_steps":  "decisions changed",
		"sim_events": "different share of the same steps",
	} {
		cand := strings.Replace(baseDoc, `"`+field+`": `, `"`+field+`": 1`, 1)
		findings, _, err := diff([]byte(baseDoc), []byte(cand), 3.0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || !strings.Contains(findings[0], field) || !strings.Contains(findings[0], why) {
			t.Errorf("%s change: findings = %v", field, findings)
		}
	}
}

func TestDiffWallToleranceAndAllocs(t *testing.T) {
	// 2x slower: inside the 3x tolerance.
	cand := strings.Replace(baseDoc, `"us_per_cycle": 10.0`, `"us_per_cycle": 20.0`, 1)
	findings, _, err := diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("2x slowdown within tolerance flagged: %v", findings)
	}
	// 4x slower: out.
	cand = strings.Replace(baseDoc, `"us_per_cycle": 10.0`, `"us_per_cycle": 40.0`, 1)
	findings, _, _ = diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if len(findings) != 1 || !strings.Contains(findings[0], "us_per_cycle") {
		t.Fatalf("4x slowdown not flagged: %v", findings)
	}
	// Allocation regression.
	cand = strings.Replace(baseDoc, `"allocs_per_cycle": 12.0`, `"allocs_per_cycle": 40.0`, 1)
	findings, _, _ = diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if len(findings) != 1 || !strings.Contains(findings[0], "allocs_per_cycle") {
		t.Fatalf("alloc regression not flagged: %v", findings)
	}
}

func TestDiffMissingPolicyAndSections(t *testing.T) {
	cand := strings.Replace(baseDoc, `"policy": "fcfs", "jobs": 100`, `"policy": "easy", "jobs": 100`, 1)
	findings, _, err := diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range findings {
		if strings.Contains(f, "missing from candidate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing policy not flagged: %v", findings)
	}
	// A candidate with only one section compares just that section.
	only100k := `{"sched_replay_100k": {"policies": [
      {"policy": "fcfs", "jobs": 100, "sched_cycles": 200, "sim_steps": 5000, "sim_events": 1000,
       "us_per_cycle": 10.0, "allocs_per_cycle": 12.0, "mean_wait_s": 5.5, "makespan_s": 900}]}}`
	findings, _, err = diff([]byte(baseDoc), []byte(only100k), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("partial candidate should compare cleanly: %v", findings)
	}
}

func TestDiffCatchesSpillChange(t *testing.T) {
	cand := strings.Replace(baseDoc, `"spilled": 40`, `"spilled": 41`, 1)
	findings, _, err := diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "spilled") {
		t.Fatalf("spill-count change not flagged: %v", findings)
	}
	if !strings.Contains(findings[0], "sched_spillover") {
		t.Fatalf("finding %q should name the spillover section", findings[0])
	}
}

// obsDoc extends baseDoc with a sched_obs section whose probed replay
// matches the plain fcfs 100k entry (so the cross-check is clean).
const obsDoc = `{
  "sched_replay_100k": {
    "policies": [
      {"policy": "fcfs", "jobs": 100, "sched_cycles": 200, "sim_steps": 5000, "sim_events": 1000,
       "us_per_cycle": 10.0, "allocs_per_cycle": 12.0, "mean_wait_s": 5.5, "makespan_s": 900}
    ]
  },
  "sched_obs": {
    "probed": {"policy": "fcfs", "jobs": 100, "wall_seconds": 2.0, "sched_cycles": 200,
       "sim_steps": 5000, "sim_events": 1000, "us_per_cycle": 11.0, "cycle_samples": 200, "schedule_samples": 200,
       "cycle_p50_us": 2.0, "cycle_p99_us": 65.5, "cycle_max_us": 290.0,
       "sched_p50_us": 0.3, "sched_p99_us": 1.0}
  }
}`

func TestDiffWarnPctBothSides(t *testing.T) {
	// 20% slower with a 25% threshold: silent.
	cand := strings.Replace(baseDoc, `"us_per_cycle": 10.0`, `"us_per_cycle": 12.0`, 1)
	findings, warnings, err := diff([]byte(baseDoc), []byte(cand), 3.0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 || len(warnings) != 0 {
		t.Fatalf("20%% drift under a 25%% threshold flagged: findings=%v warnings=%v", findings, warnings)
	}
	// 40% slower: a warning, never a finding (inside the 3x hard tolerance).
	cand = strings.Replace(baseDoc, `"us_per_cycle": 10.0`, `"us_per_cycle": 14.0`, 1)
	findings, warnings, err = diff([]byte(baseDoc), []byte(cand), 3.0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("soft drift must not produce findings: %v", findings)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "us_per_cycle") || !strings.Contains(warnings[0], "+40.0%") {
		t.Fatalf("warnings = %v, want one +40%% us_per_cycle warning", warnings)
	}
	// 40% FASTER warns too: the benchmark stopped measuring what it used to.
	cand = strings.Replace(baseDoc, `"us_per_cycle": 10.0`, `"us_per_cycle": 6.0`, 1)
	_, warnings, _ = diff([]byte(baseDoc), []byte(cand), 3.0, 25)
	if len(warnings) != 1 || !strings.Contains(warnings[0], "-40.0%") {
		t.Fatalf("warnings = %v, want one -40%% warning", warnings)
	}
	// warnPct 0 disables the soft gate entirely.
	_, warnings, _ = diff([]byte(baseDoc), []byte(cand), 3.0, 0)
	if len(warnings) != 0 {
		t.Fatalf("warn-pct 0 should disable warnings: %v", warnings)
	}
}

func TestDiffObsExactFields(t *testing.T) {
	findings, warnings, err := diff([]byte(obsDoc), []byte(obsDoc), 3.0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 || len(warnings) != 0 {
		t.Fatalf("identical obs docs flagged: findings=%v warnings=%v", findings, warnings)
	}
	// Each deterministic obs field is exact-diffed. The old strings are
	// anchored with neighbors unique to the probed entry so the
	// replacement cannot hit the plain replay section's copy.
	for field, repl := range map[string][2]string{
		"sched_cycles":     {`"wall_seconds": 2.0, "sched_cycles": 200`, `"wall_seconds": 2.0, "sched_cycles": 201`},
		"sim_steps":        {`"sim_steps": 5000, "sim_events": 1000, "us_per_cycle": 11.0`, `"sim_steps": 5001, "sim_events": 1000, "us_per_cycle": 11.0`},
		"sim_events":       {`"sim_events": 1000, "us_per_cycle": 11.0`, `"sim_events": 1001, "us_per_cycle": 11.0`},
		"cycle_samples":    {`"cycle_samples": 200`, `"cycle_samples": 201`},
		"schedule_samples": {`"schedule_samples": 200`, `"schedule_samples": 201`},
	} {
		cand := strings.Replace(obsDoc, repl[0], repl[1], 1)
		if cand == obsDoc {
			t.Fatalf("replacement for %s did not apply", field)
		}
		findings, _, err := diff([]byte(obsDoc), []byte(cand), 3.0, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range findings {
			if strings.Contains(f, field) && strings.Contains(f, "sched_obs/fcfs") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s change not flagged in sched_obs: %v", field, findings)
		}
	}
	// Histogram quantiles are recorded only — moving one is silent.
	cand := strings.Replace(obsDoc, `"cycle_p99_us": 65.5`, `"cycle_p99_us": 650.0`, 1)
	findings, warnings, err = diff([]byte(obsDoc), []byte(cand), 3.0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 || len(warnings) != 0 {
		t.Fatalf("quantile drift should be silent: findings=%v warnings=%v", findings, warnings)
	}
}

func TestDiffObsCrossCheck(t *testing.T) {
	// The probed replay diverging from the plain replay of the SAME
	// document means the probes perturbed decisions — flagged even when
	// baseline and candidate agree with each other.
	bad := strings.Replace(obsDoc, `"sched_obs": {
    "probed": {"policy": "fcfs", "jobs": 100, "wall_seconds": 2.0, "sched_cycles": 200,`,
		`"sched_obs": {
    "probed": {"policy": "fcfs", "jobs": 100, "wall_seconds": 2.0, "sched_cycles": 207,`, 1)
	if bad == obsDoc {
		t.Fatal("replacement did not apply")
	}
	findings, _, err := diff([]byte(bad), []byte(bad), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := 0
	for _, f := range findings {
		if strings.Contains(f, "probes perturbed decisions") {
			perturbed++
		}
	}
	if perturbed != 2 { // baseline + candidate are the same bad doc
		t.Fatalf("cross-check findings = %v, want 2 perturbation findings", findings)
	}
}

// shmemDoc extends the plain replay with a sched_shmem section whose
// backend-interface replay matches the plain fcfs 100k entry (so the
// cross-check is clean) plus the per-backend op micro-costs.
const shmemDoc = `{
  "sched_replay_100k": {
    "policies": [
      {"policy": "fcfs", "jobs": 100, "sched_cycles": 200, "sim_events": 1000,
       "us_per_cycle": 10.0, "allocs_per_cycle": 12.0, "mean_wait_s": 5.5, "makespan_s": 900}
    ]
  },
  "sched_shmem": {
    "replay": {"policy": "fcfs", "jobs": 100, "sched_cycles": 200, "sim_events": 1000,
       "us_per_cycle": 11.0, "allocs_per_cycle": 13.0, "mean_wait_s": 5.5, "makespan_s": 900},
    "backends": [
      {"backend": "mem", "ops": 100000, "us_per_op": 0.3},
      {"backend": "file", "ops": 2000, "us_per_op": 100.0}
    ]
  }
}`

func TestDiffShmemSection(t *testing.T) {
	findings, warnings, err := diff([]byte(shmemDoc), []byte(shmemDoc), 3.0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 || len(warnings) != 0 {
		t.Fatalf("identical shmem docs flagged: findings=%v warnings=%v", findings, warnings)
	}
	// A changed op count is a hard finding; a >tolerance op slowdown too.
	cand := strings.Replace(shmemDoc, `"ops": 2000`, `"ops": 2001`, 1)
	findings, _, _ = diff([]byte(shmemDoc), []byte(cand), 3.0, 0)
	if len(findings) != 1 || !strings.Contains(findings[0], "sched_shmem/ops/file") {
		t.Fatalf("op-count change not flagged: %v", findings)
	}
	cand = strings.Replace(shmemDoc, `"us_per_op": 0.3`, `"us_per_op": 1.2`, 1)
	findings, _, _ = diff([]byte(shmemDoc), []byte(cand), 3.0, 0)
	if len(findings) != 1 || !strings.Contains(findings[0], "us_per_op") {
		t.Fatalf("4x op slowdown not flagged: %v", findings)
	}
	// A backend disappearing from the candidate is a hard finding.
	cand = strings.Replace(shmemDoc, `"backend": "file"`, `"backend": "file2"`, 1)
	findings, _, _ = diff([]byte(shmemDoc), []byte(cand), 3.0, 0)
	found := false
	for _, f := range findings {
		found = found || strings.Contains(f, `backend "file" missing`)
	}
	if !found {
		t.Fatalf("missing backend not flagged: %v", findings)
	}
}

func TestDiffShmemCrossCheck(t *testing.T) {
	// The backend-interface replay diverging from the plain replay of
	// the SAME document means the interface changed decisions.
	bad := strings.Replace(shmemDoc,
		`"replay": {"policy": "fcfs", "jobs": 100, "sched_cycles": 200,`,
		`"replay": {"policy": "fcfs", "jobs": 100, "sched_cycles": 209,`, 1)
	if bad == shmemDoc {
		t.Fatal("replacement did not apply")
	}
	findings, _, err := diff([]byte(bad), []byte(bad), 3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for _, f := range findings {
		if strings.Contains(f, "backend changed decisions") {
			diverged++
		}
	}
	if diverged != 2 { // baseline + candidate are the same bad doc
		t.Fatalf("cross-check findings = %v, want 2 divergence findings", findings)
	}
	// An interface replay slower than tolerance x the plain replay, or
	// allocating where the plain replay does not, fails even when both
	// documents agree.
	slow := strings.Replace(shmemDoc, `"us_per_cycle": 11.0`, `"us_per_cycle": 31.0`, 1)
	findings, _, _ = diff([]byte(slow), []byte(slow), 3.0, 0)
	if len(findings) != 2 || !strings.Contains(findings[0], "indirection is not free") {
		t.Fatalf("indirection slowdown not flagged: %v", findings)
	}
	leaky := strings.Replace(shmemDoc, `"allocs_per_cycle": 13.0`, `"allocs_per_cycle": 50.0`, 1)
	findings, _, _ = diff([]byte(leaky), []byte(leaky), 3.0, 0)
	if len(findings) != 2 || !strings.Contains(findings[0], "indirection allocates") {
		t.Fatalf("indirection alloc regression not flagged: %v", findings)
	}
}
