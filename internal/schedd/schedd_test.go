package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testScenario is a deterministic 120-job cluster with the mutators
// applied.
func testScenario(t testing.TB, mutate ...func(*workload.Scenario)) workload.Scenario {
	t.Helper()
	return jobsScenario(t, 120, mutate...)
}

// jobsScenario is testScenario with the given number of jobs.
func jobsScenario(t testing.TB, jobs int, mutate ...func(*workload.Scenario)) workload.Scenario {
	t.Helper()
	sc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{
		Seed: 7, Jobs: jobs, Nodes: 4, MeanInterarrival: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	for _, m := range mutate {
		m(&sc)
	}
	return sc
}

// newTestServer opens the test scenario as a live cluster and serves
// it over HTTP.
func newTestServer(t *testing.T, mutate ...func(*workload.Scenario)) (*httptest.Server, *Server) {
	t.Helper()
	return serve(t, testScenario(t, mutate...))
}

// serve opens sc as a live cluster and serves it over HTTP.
func serve(t *testing.T, sc workload.Scenario) (*httptest.Server, *Server) {
	t.Helper()
	sess, err := workload.NewSchedSession(sc, &sched.EASY{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sess, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// countForks is a scenario mutator whose probe counts the KindFork
// events the live lineage emits.
func countForks(n *atomic.Int64) func(*workload.Scenario) {
	return func(sc *workload.Scenario) {
		sc.Probe = obs.Func(func(ev obs.Event) {
			if ev.Kind == obs.KindFork {
				n.Add(1)
			}
		})
	}
}

// sessionKind is a live session a what-if must predict exactly: the
// test scenario with a mutator applied.
type sessionKind struct {
	name   string
	mutate func(*workload.Scenario)
}

// sessionKinds are the plain session and one whose every iteration
// duration is a draw from the cluster's seeded jitter stream, which
// each fork continues.
var sessionKinds = []sessionKind{
	{"plain", func(*workload.Scenario) {}},
	{"jittered", func(sc *workload.Scenario) { sc.JitterFrac = 0.03 }},
}

// whatIfPolicies are the policy query values every differential asks
// under: none, then each committed policy.
var whatIfPolicies = append([]string{""}, sched.Names()...)

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

// whatIf asks GET /whatif about the job under the policy ("" for the
// live one) and returns the prediction and the status. Safe from any
// goroutine. A 200 reply must carry a wait: every job a what-if can
// find has a submission time the server knows.
func whatIf(t *testing.T, ts *httptest.Server, job, policy string) (WhatIf, int) {
	t.Helper()
	u := ts.URL + "/whatif?job=" + url.QueryEscape(job)
	if policy != "" {
		u += "&policy=" + url.QueryEscape(policy)
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Error(err)
		return WhatIf{}, 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var p WhatIf
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &p); err != nil {
			t.Errorf("GET %s: bad JSON %q: %v", u, body, err)
		}
		if p.Wait < 0 {
			t.Errorf("GET %s: a 200 reply without a wait: %s", u, body)
		}
	}
	return p, resp.StatusCode
}

// privateWhatIf is the fork-per-request what-if the projections
// replaced, kept as their reference: fork the live session under its
// lock, swap the policy in, run the fork until the candidate's first
// start and stop there. It returns the prediction, the status the
// handler answered with and the fork's step count when it stopped. Its
// KindSubmit branch is the in-fork submit capture the service no
// longer has: were it ever to fire, Wait would differ from the
// service's.
func privateWhatIf(s *Server, name, policy string) (WhatIf, int, int64) {
	s.mu.Lock()
	forkedAt := s.sess.Now()
	submit, haveSubmit := s.submits[name]
	fork, err := s.sess.Fork()
	s.mu.Unlock()
	if err != nil {
		return WhatIf{}, http.StatusConflict, 0
	}
	ctl, eng := fork.Controller(), fork.Engine()
	if policy != "" {
		p, err := sched.New(policy)
		if err != nil {
			return WhatIf{}, http.StatusBadRequest, 0
		}
		ctl.UseSched(p)
	}
	pred := WhatIf{Job: name, Policy: policy, ForkedAt: forkedAt, Start: -1, Wait: -1}
	found := false
	ctl.Probe = obs.Func(func(ev obs.Event) {
		switch {
		case ev.Kind == obs.KindSubmit && ev.Job == name && !haveSubmit:
			submit, haveSubmit = ev.Time, true
		case ev.Kind == obs.KindJobStart && ev.Job == name && !found:
			found = true
			pred.Start = ev.Time
			pred.Placement = ev.Placement
			pred.Partition = ev.Partition
			pred.Origin = ev.Origin
			pred.Nodes = ev.Nodes
			pred.CPUs = ev.CPUs
			eng.Stop()
		}
	})
	eng.Run()
	steps := eng.Processed() + eng.Skipped()
	if fork.Err() != nil {
		return WhatIf{}, http.StatusInternalServerError, steps
	}
	if !found {
		return WhatIf{}, http.StatusNotFound, steps
	}
	if haveSubmit {
		pred.Wait = pred.Start - submit
	}
	return pred, http.StatusOK, steps
}

// matchPrivate asks the service about the job and requires the reply
// the private-fork reference gives at the same state, field for field.
func matchPrivate(t *testing.T, ts *httptest.Server, srv *Server, job, policy string) (WhatIf, int) {
	t.Helper()
	got, code := whatIf(t, ts, job, policy)
	want, wantCode, _ := privateWhatIf(srv, job, policy)
	if code != wantCode || got != want {
		t.Errorf("what-if %s policy=%q: service %d %+v, private fork %d %+v", job, policy, code, got, wantCode, want)
	}
	return got, code
}

// steps reads a projection's step count.
func (p *projection) steps() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng := p.sess.Engine()
	return eng.Processed() + eng.Skipped()
}

// liveProjection returns the projection of the live state under the
// policy, nil if none is held.
func (s *Server) liveProjection(policy string) *projection {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proj[policy]
}

// TestWhatIfMatchesActualStart: a what-if with no policy override is
// a prediction of the live lineage's own future, so by fork
// equivalence the predicted start must equal the start the live
// cluster actually records when time advances to it — bit for bit,
// jittered session included.
func TestWhatIfMatchesActualStart(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			ts, srv := newTestServer(t, k.mutate)
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
				p, code := whatIf(t, ts, name, "")
				if code != http.StatusOK {
					t.Fatalf("%s: status %d", name, code)
				}
				if p.Start < p.ForkedAt && name == "api-probe" {
					t.Errorf("%s: predicted start %g precedes the fork point %g", name, p.Start, p.ForkedAt)
				}
				if p.Placement == "" {
					t.Errorf("%s: prediction has no placement", name)
				}
				preds = append(preds, p)
			}

			// Drain the live lineage and compare against what really happened.
			postJSON(t, ts.URL+"/advance", map[string]float64{"until": 1e12}, http.StatusOK, &st)
			if st.Queue != 0 || st.Running != 0 {
				t.Fatalf("live lineage did not drain: %+v", st)
			}
			rec := srv.sess.Controller().Records
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
		p, code := whatIf(t, ts, name, pol)
		if code != http.StatusOK || p.Start < 0 {
			t.Errorf("policy %s: status %d, no predicted start", pol, code)
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
		if p.Start-p.Wait < 0 {
			t.Errorf("policy %s: wait %g exceeds start %g", pol, p.Wait, p.Start)
		}
	}
}

// TestConcurrentWhatIfs hammers the fork pool from many goroutines
// (run under -race in CI): all queries must succeed and queries for
// the same job must agree with each other — on a jittered session too,
// where every lineage continues its own copy of the stream.
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
						var code int
						if results[i][k], code = whatIf(t, ts, name, ""); code != http.StatusOK {
							t.Errorf("whatif %s: status %d", name, code)
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

// postStatus POSTs the body and returns the reply's status. Safe from
// any goroutine.
func postStatus(t *testing.T, url string, req any) int {
	b, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestConcurrentWhatIfsWithMutations races first-time what-ifs against
// every kind of live mutation: submissions, malleability flips,
// cancellations, and advances that append completed records to the
// array every fork taken before them shares as history. Each wave of
// what-ifs starts on a state no what-if has seen, so several of them
// fork, find or step one projection at once, under every policy, while
// the mutations drop it. Everything must stay race-free and
// well-formed (the predictions themselves legitimately vary with the
// interleaving).
func TestConcurrentWhatIfsWithMutations(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			ts, _ := newTestServer(t, k.mutate)
			postJSON(t, ts.URL+"/advance", map[string]float64{"until": 400}, http.StatusOK, nil)
			var before State
			getJSON(t, ts.URL+"/state", http.StatusOK, &before)
			if before.Completed == 0 {
				t.Fatal("no completed job at t=400: the forks share no history")
			}

			var wg sync.WaitGroup
			final := 400.0
			for wave := 0; wave < 3; wave++ {
				for k := 0; k < 10; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						job, policy := fmt.Sprintf("j%05d", 60+k%5*10), whatIfPolicies[k%len(whatIfPolicies)]
						if _, code := whatIf(t, ts, job, policy); code != http.StatusOK && code != http.StatusNotFound {
							t.Errorf("whatif %s policy=%q: unexpected status %d", job, policy, code)
						}
					}(k)
				}
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					job := map[string]any{
						"name": name, "app": "pils",
						"ranks": 2, "threads": 2, "nodes": 2, "walltime": 300,
					}
					if code := postStatus(t, ts.URL+"/submit", job); code != http.StatusOK {
						t.Errorf("submit %s: status %d", name, code)
					}
					// The job may have started by now: then it is no longer queued.
					if code := postStatus(t, ts.URL+"/malleable", map[string]any{"name": name, "malleable": true}); code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("malleable %s: status %d", name, code)
					}
					if code := postStatus(t, ts.URL+"/cancel", map[string]string{"name": name}); code != http.StatusOK {
						t.Errorf("cancel %s: status %d", name, code)
					}
				}(fmt.Sprintf("mut-%d", wave))
				final += 50
				postJSON(t, ts.URL+"/advance", map[string]float64{"until": final}, http.StatusOK, nil)
			}
			wg.Wait()
			var st State
			getJSON(t, ts.URL+"/state", http.StatusOK, &st)
			if st.Now != final {
				t.Errorf("live lineage at now=%g, want %g", st.Now, final)
			}
			if st.Completed <= before.Completed {
				t.Errorf("completed %d after the advances, %d before: nothing was appended behind the forks", st.Completed, before.Completed)
			}
		})
	}
}

// TestWhatIfProjectionMatchesPrivateFork: a what-if answered from the
// shared projection equals, status and every field, what a private
// fork of the same state stopped at the candidate's start answers. The
// 40 jobs are asked in a seeded random order, so the projection answers
// some from starts it has already passed and steps on for others; the
// jobs that started before the fork point are 404s on both sides. A
// third session loses a node at t=600, so the jobs running there are
// requeued and start twice: the answer is the first start.
func TestWhatIfProjectionMatchesPrivateFork(t *testing.T) {
	faulted := sessionKind{"faulted", func(sc *workload.Scenario) { sc.NodeFaults = "node1:down@600..900" }}
	for _, k := range append(sessionKinds, faulted) {
		t.Run(k.name, func(t *testing.T) {
			ts, srv := newTestServer(t, k.mutate)
			postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)
			subs := srv.sess.Scenario().Subs
			answered := 0
			for _, i := range rand.New(rand.NewSource(1)).Perm(len(subs))[:40] {
				for _, policy := range whatIfPolicies {
					if _, code := matchPrivate(t, ts, srv, subs[i].Job.Name, policy); code == http.StatusOK {
						answered++
					}
				}
			}
			if answered == 0 {
				t.Fatal("no what-if got a 200: nothing was compared")
			}
		})
	}
}

// TestWhatIfAfterEachMutationIsFresh: after each kind of live mutation
// the next what-if forks a new projection — the live probe sees one
// more KindFork — and answers for the new state as a private fork of it
// does.
func TestWhatIfAfterEachMutationIsFresh(t *testing.T) {
	var forks atomic.Int64
	ts, srv := newTestServer(t, countForks(&forks))
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)
	check := func(after string) {
		t.Helper()
		n := forks.Load()
		whatIf(t, ts, "j00100", "")
		if got := forks.Load() - n; got != 1 {
			t.Errorf("after %s: the next what-if forked %d times, want 1", after, got)
		}
		for _, job := range []string{"fresh", "j00040", "j00100"} {
			matchPrivate(t, ts, srv, job, "")
		}
	}
	check("boot")
	// Whole-cluster shape with a huge walltime: it stays queued for the
	// malleable flip.
	postJSON(t, ts.URL+"/submit", map[string]any{
		"name": "fresh", "app": "pils", "ranks": 4, "threads": 16, "nodes": 4, "walltime": 50000,
	}, http.StatusOK, nil)
	check("submit")
	postJSON(t, ts.URL+"/malleable", map[string]any{"name": "fresh", "malleable": true}, http.StatusOK, nil)
	check("malleable")
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "fresh"}, http.StatusOK, nil)
	check("cancel")
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 700}, http.StatusOK, nil)
	check("advance")
}

// TestWhatIfBatchSharesOneProjection: a batch of what-ifs on one state,
// concurrent and each job asked twice, forks the live session once, and
// the shared projection runs exactly as far as a private fork stopped
// at the latest-starting job among them.
func TestWhatIfBatchSharesOneProjection(t *testing.T) {
	var forks atomic.Int64
	ts, srv := newTestServer(t, countForks(&forks))
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)
	jobs := []string{"j00050", "j00110", "j00070", "j00090", "j00060", "j00080"}
	n := forks.Load()
	var wg sync.WaitGroup
	for i := 0; i < 2*len(jobs); i++ {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			if _, code := whatIf(t, ts, job, ""); code != http.StatusOK {
				t.Errorf("whatif %s: status %d", job, code)
			}
		}(jobs[i%len(jobs)])
	}
	wg.Wait()
	if got := forks.Load() - n; got != 1 {
		t.Fatalf("%d what-ifs on one state forked the live session %d times, want 1", 2*len(jobs), got)
	}
	var want int64
	for _, job := range jobs {
		_, _, steps := privateWhatIf(srv, job, "")
		want = max(want, steps)
	}
	if got := srv.liveProjection("").steps(); got != want {
		t.Errorf("projection at step %d, a private fork stops at the latest start at step %d", got, want)
	}
}

// goneAfter is a request context whose client leaves once it has been
// checked the given number of times.
type goneAfter struct {
	context.Context
	checks int
}

func (g *goneAfter) Err() error {
	if g.checks > 0 {
		g.checks--
		return nil
	}
	return context.Canceled
}

// TestWhatIfCancelledRequestStopsBetweenSteps: a what-if whose client
// has gone stops its projection at the next check and answers nothing.
// An already-cancelled request takes no step; one whose client leaves
// after the first check stops ctxCheckSteps Step calls in. The
// projection survives both: the next what-if resumes it and answers as
// a private fork does. The session is a jittered one of 1000 jobs: one
// Step call can take many engine steps, and its last job starts about
// 10 600 calls out, well past the first ctxCheckSteps.
func TestWhatIfCancelledRequestStopsBetweenSteps(t *testing.T) {
	ts, srv := serve(t, jobsScenario(t, 1000, sessionKinds[1].mutate))
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)
	matchPrivate(t, ts, srv, "j00030", "")
	p := srv.liveProjection("")
	subs := srv.sess.Scenario().Subs
	last := subs[len(subs)-1].Job.Name
	_, _, lastSteps := privateWhatIf(srv, last, "")

	ask := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/whatif?job="+last, nil).WithContext(ctx))
		return rec
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	s0 := p.steps()
	if rec := ask(gone); rec.Body.Len() != 0 {
		t.Errorf("a cancelled what-if answered %q", rec.Body)
	}
	if s := p.steps(); s != s0 {
		t.Errorf("a cancelled what-if took %d steps", s-s0)
	}
	if rec := ask(&goneAfter{Context: context.Background(), checks: 1}); rec.Body.Len() != 0 {
		t.Errorf("a what-if whose client left answered %q", rec.Body)
	}
	if s := p.steps(); s-s0 < ctxCheckSteps || s >= lastSteps {
		t.Errorf("a what-if whose client left after one check stopped at step %d: want at least %d steps past %d and short of %s's start at %d",
			s, ctxCheckSteps, s0, last, lastSteps)
	}
	if srv.liveProjection("") != p {
		t.Fatal("a cancelled what-if dropped its projection")
	}
	matchPrivate(t, ts, srv, last, "")
	matchPrivate(t, ts, srv, "j00030", "")
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
	// Ranks per node times threads would overflow to 0.
	postJSON(t, ts.URL+"/submit", map[string]any{
		"name": "overflow", "app": "pils", "ranks": 1 << 62, "threads": 4, "nodes": 1,
	}, http.StatusUnprocessableEntity, nil)
	postJSON(t, ts.URL+"/cancel", map[string]any{"name": "j00001", "force": true}, http.StatusBadRequest, nil)
	resp, err := http.Post(ts.URL+"/advance", "application/json",
		strings.NewReader(strings.Repeat(" ", maxBody)+`{"until": 100}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /advance of %d bytes: status %d, want 413", maxBody+14, resp.StatusCode)
	}
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "no-such-job"}, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/malleable", map[string]any{"name": "no-such-job", "malleable": true}, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 100}, http.StatusOK, nil)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 50}, http.StatusBadRequest, nil)
	// Method confusion.
	resp, err = http.Get(ts.URL + "/submit")
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

// TestSubmitSeenNameConflicts: a name schedd has seen — in the boot
// trace or an earlier submit — is refused with 409, and the refusal
// leaves the live lineage and its projection as they were. The what-if
// then answers for the one job of that name, its wait measured from
// its own submission, and one cancel removes it.
func TestSubmitSeenNameConflicts(t *testing.T) {
	ts, srv := newTestServer(t)
	postJSON(t, ts.URL+"/submit", map[string]any{"name": "j00001", "app": "pils"}, http.StatusConflict, nil)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 500}, http.StatusOK, nil)
	// The whole-cluster shape of TestCancelAndMalleableRoundTrip: it
	// stays queued past t=800.
	dup := map[string]any{"name": "dup", "app": "pils", "ranks": 4, "threads": 16, "nodes": 4, "walltime": 50000}
	postJSON(t, ts.URL+"/submit", dup, http.StatusOK, nil)
	postJSON(t, ts.URL+"/advance", map[string]float64{"until": 800}, http.StatusOK, nil)
	first, code := whatIf(t, ts, "dup", "")
	if code != http.StatusOK || first.Start <= 800 {
		t.Fatalf("what-if on dup: status %d, %+v; want it still queued at t=800", code, first)
	}
	var before, after State
	getJSON(t, ts.URL+"/state", http.StatusOK, &before)
	proj := srv.liveProjection("")
	postJSON(t, ts.URL+"/submit", dup, http.StatusConflict, nil)
	getJSON(t, ts.URL+"/state", http.StatusOK, &after)
	if after != before || srv.liveProjection("") != proj {
		t.Errorf("the refused submit moved the state (%+v, was %+v) or dropped the projection", after, before)
	}
	got, code := whatIf(t, ts, "dup", "")
	if code != http.StatusOK || got != first || got.Wait != got.Start-500 {
		t.Errorf("what-if on dup after the refusal: status %d, %+v; want %+v, waiting since t=500", code, got, first)
	}
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "dup"}, http.StatusOK, nil)
	postJSON(t, ts.URL+"/cancel", map[string]string{"name": "dup"}, http.StatusNotFound, nil)
}
