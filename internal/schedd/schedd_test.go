package schedd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// newTestServer opens a deterministic 120-job live cluster, with the
// mutators applied to its scenario, and its HTTP facade.
func newTestServer(t *testing.T, mutate ...func(*workload.Scenario)) (*httptest.Server, *workload.Session) {
	t.Helper()
	sc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{
		Seed: 7, Jobs: 120, Nodes: 4, MeanInterarrival: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	for _, m := range mutate {
		m(&sc)
	}
	sess, err := workload.NewSchedSession(sc, &sched.EASY{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sess, 4).Handler())
	t.Cleanup(ts.Close)
	return ts, sess
}

// sessionKinds are the live sessions a what-if must predict exactly:
// the plain one, and one whose every iteration duration is a draw from
// the cluster's seeded jitter stream, which each fork continues.
var sessionKinds = []struct {
	name   string
	mutate func(*workload.Scenario)
}{
	{"plain", func(*workload.Scenario) {}},
	{"jittered", func(sc *workload.Scenario) { sc.JitterFrac = 0.03 }},
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func postJSON(t *testing.T, url string, req any, wantCode int, v any) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s %s: status %d (want %d): %s", url, b, resp.StatusCode, wantCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, body, err)
		}
	}
}

// TestWhatIfMatchesActualStart: a what-if with no policy override is
// a prediction of the live lineage's own future, so by fork
// equivalence the predicted start must equal the start the live
// cluster actually records when time advances to it — bit for bit,
// jittered session included.
func TestWhatIfMatchesActualStart(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			ts, sess := newTestServer(t, k.mutate)
			postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)

			// A job submitted over the API into the advanced cluster: it queues
			// behind the synthetic backlog.
			job := map[string]any{
				"name": "api-probe", "app": "pils", "ranks": 4, "threads": 4,
				"nodes": 2, "walltime": 900, "malleable": true,
			}
			var st State
			postJSON(t, ts.URL+"/submit", job, http.StatusOK, &st)
			if st.Queue == 0 && st.Running == 0 {
				t.Fatal("submitted job is neither queued nor running")
			}

			var preds []WhatIf
			for _, name := range []string{"api-probe", "j00090"} { // one live, one still upstream
				var p WhatIf
				getJSON(t, ts.URL+"/whatif?job="+name, http.StatusOK, &p)
				if p.Start < p.ForkedAt && name == "api-probe" {
					t.Errorf("%s: predicted start %g precedes the fork point %g", name, p.Start, p.ForkedAt)
				}
				if p.Placement == "" {
					t.Errorf("%s: prediction has no placement", name)
				}
				if p.Wait < 0 {
					t.Errorf("%s: prediction has no wait (submit time lost)", name)
				}
				preds = append(preds, p)
			}

			// Drain the live lineage and compare against what really happened.
			postJSON(t, ts.URL+"/advance", map[string]float64{"until": 1e12}, http.StatusOK, &st)
			if st.Queue != 0 || st.Running != 0 {
				t.Fatalf("live lineage did not drain: %+v", st)
			}
			rec := sess.Controller().Records
			for _, p := range preds {
				found := false
				for _, j := range rec.Jobs {
					if j.Name != p.Job {
						continue
					}
					found = true
					if j.Start != p.Start {
						t.Errorf("%s: predicted start %g, actual %g", p.Job, p.Start, j.Start)
					}
					if j.Start-j.Submit != p.Wait {
						t.Errorf("%s: predicted wait %g, actual %g", p.Job, p.Wait, j.Start-j.Submit)
					}
				}
				if !found {
					t.Errorf("%s: no record in the drained live lineage", p.Job)
				}
			}
		})
	}
}

// TestWhatIfPolicyOverride: overriding the policy changes the
// counterfactual without touching the live lineage.
func TestWhatIfPolicyOverride(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 800}, http.StatusOK, nil)
	var before State
	getJSON(t, ts.URL+"/state", http.StatusOK, &before)

	name := "j00100"
	byPolicy := map[string]WhatIf{}
	for _, pol := range sched.Names() {
		var p WhatIf
		getJSON(t, ts.URL+"/whatif?job="+name+"&policy="+pol, http.StatusOK, &p)
		if p.Start < 0 {
			t.Errorf("policy %s: no predicted start", pol)
		}
		byPolicy[pol] = p
	}
	var after State
	getJSON(t, ts.URL+"/state", http.StatusOK, &after)
	if before != after {
		t.Errorf("what-ifs perturbed the live lineage: %+v -> %+v", before, after)
	}
	// Not all policies must disagree, but the map must be fully
	// populated and each prediction self-consistent.
	for pol, p := range byPolicy {
		if p.Wait >= 0 && p.Start-p.Wait < 0 {
			t.Errorf("policy %s: wait %g exceeds start %g", pol, p.Wait, p.Start)
		}
	}
}

// TestConcurrentWhatIfs hammers the fork pool from many goroutines
// (run under -race in CI): all queries must succeed and queries for
// the same job must agree with each other — on a jittered session too,
// so each fork's stream is its own.
func TestConcurrentWhatIfs(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			ts, _ := newTestServer(t, k.mutate)
			postJSON(t, ts.URL+"/advance", map[string]float64{"until": 600}, http.StatusOK, nil)

			jobs := []string{"j00080", "j00090", "j00100", "j00110"}
			const per = 4
			var wg sync.WaitGroup
			results := make([][]WhatIf, len(jobs))
			for i, name := range jobs {
				results[i] = make([]WhatIf, per)
				for k := 0; k < per; k++ {
					wg.Add(1)
					go func(i, k int, name string) {
						defer wg.Done()
						resp, err := http.Get(ts.URL + "/whatif?job=" + name)
						if err != nil {
							t.Error(err)
							return
						}
						defer resp.Body.Close()
						body, _ := io.ReadAll(resp.Body)
						if resp.StatusCode != http.StatusOK {
							t.Errorf("whatif %s: status %d: %s", name, resp.StatusCode, body)
							return
						}
						if err := json.Unmarshal(body, &results[i][k]); err != nil {
							t.Errorf("whatif %s: %v", name, err)
						}
					}(i, k, name)
				}
			}
			wg.Wait()
			for i, name := range jobs {
				for k := 1; k < per; k++ {
					if results[i][k] != results[i][0] {
						t.Errorf("concurrent what-ifs for %s disagree:\n  %+v\n  %+v", name, results[i][0], results[i][k])
					}
				}
			}
		})
	}
}

// TestConcurrentWhatIfsWithMutations interleaves what-ifs with live
// mutations: submissions, and advances that append completed records
// to the array every fork taken before them shares as history.
// Everything must stay race-free and well-formed (the predictions
// themselves legitimately vary with the interleaving).
func TestConcurrentWhatIfsWithMutations(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 400}, http.StatusOK, nil)
	var before State
	getJSON(t, ts.URL+"/state", http.StatusOK, &before)
	if before.Completed == 0 {
		t.Fatal("no completed job at t=400: the forks share no history")
	}

	var wg sync.WaitGroup
	for k := 0; k < 6; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/whatif?job=j%05d", ts.URL, 60+k*5))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("whatif: unexpected status %d", resp.StatusCode)
			}
		}(k)
	}
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			job := map[string]any{
				"name": fmt.Sprintf("mut-%d", k), "app": "pils",
				"ranks": 2, "threads": 2, "nodes": 2, "walltime": 300,
			}
			postJSON(t, ts.URL+"/submit", job, http.StatusOK, nil)
		}(k)
	}
	for until := 450.0; until <= 600; until += 50 {
		postJSON(t, ts.URL+"/advance", map[string]float64{"until": until}, http.StatusOK, nil)
	}
	wg.Wait()
	var st State
	getJSON(t, ts.URL+"/state", http.StatusOK, &st)
	if st.Now != 600 {
		t.Errorf("live lineage at now=%g, want 600", st.Now)
	}
	if st.Completed <= before.Completed {
		t.Errorf("completed %d after the advances, %d before: nothing was appended behind the forks", st.Completed, before.Completed)
	}
}

// TestEndpointErrors covers the API's refusal paths.
func TestEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	getJSON(t, ts.URL+"/whatif", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/whatif?job=no-such-job", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/whatif?job=j00001&policy=bogus", http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/submit", map[string]any{"name": "x", "app": "bogus"}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/submit", map[string]any{"app": "pils"}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/submit", map[string]any{
		"name": "too-big", "app": "pils", "ranks": 64, "threads": 16, "nodes": 64,
	}, http.StatusUnprocessableEntity, nil)
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "no-such-job"}, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/malleable", map[string]any{"name": "no-such-job", "malleable": true}, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 100}, http.StatusOK, nil)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 50}, http.StatusBadRequest, nil)
	// Method confusion.
	resp, err := http.Get(ts.URL + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /submit: status %d, want 405", resp.StatusCode)
	}
}

// TestCancelAndMalleableRoundTrip exercises the mutating endpoints
// against real queued jobs.
func TestCancelAndMalleableRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)
	var st State
	getJSON(t, ts.URL+"/state", http.StatusOK, &st)
	if st.Queue == 0 {
		t.Skip("no queued jobs at t=500; scenario too idle for this test")
	}
	// Whole-cluster shape with a huge walltime: it cannot start while
	// anything else runs and no backfill window fits it, so it stays
	// queued for the malleable flip.
	job := map[string]any{
		"name": "rt", "app": "pils", "ranks": 4, "threads": 16, "nodes": 4,
		"walltime": 50000,
	}
	postJSON(t, ts.URL+"/submit", job, http.StatusOK, nil)
	postJSON(t, ts.URL+"/malleable", map[string]any{"name": "rt", "malleable": true}, http.StatusOK, nil)
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "rt"}, http.StatusOK, nil)
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "rt"}, http.StatusNotFound, nil)
}
