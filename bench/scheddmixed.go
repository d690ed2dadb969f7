package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/workload"
)

// candidateLead is how far upstream of the furthest live time a
// what-if candidate must be submitted, in virtual seconds. A what-if
// on a job that already started in the live lineage runs its fork to
// the end of the trace and answers 404; the lead keeps every
// candidate clear of that.
const candidateLead = 1500

// advanceStep is the virtual time one POST /advance moves the live
// session, in seconds.
const advanceStep = 5

// mixedCycle is the period of the open-loop schedule: 16 what-ifs and
// 4 mutations (advance, submit, state, cancel) every 20 requests.
const mixedCycle = 20

// maxMixedRequests is the open-loop budget of one session: 200
// advances, 1000 virtual seconds, 26 s of load at 150 requests per
// second. It is a constant so that the candidates, and with them the
// committed prediction digest, do not depend on how long a run lasts.
const maxMixedRequests = 200 * mixedCycle

// scheddTraceSeed fixes the trace behind the session. The trace is the
// service's data set, not its load: between seeds the state at the
// midpoint and the work downstream of it differ by ±25 % in events per
// what-if at this size, which would make the seed, not the code, the
// largest term in every figure. The run's seed draws the load instead:
// the order the candidates are asked about and the shapes of the
// submitted jobs.
const scheddTraceSeed = 1

// pickCandidates returns the names of the first n jobs submitted
// strictly after horizon, the furthest virtual time the live session
// will reach plus candidateLead. A job at or behind the horizon is
// refused: it may already have started when a what-if asks about it.
func pickCandidates(subs []workload.Submission, horizon float64, n int) ([]string, error) {
	names := make([]string, 0, n)
	for i := range subs {
		if subs[i].At <= horizon {
			continue
		}
		names = append(names, subs[i].Job.Name)
		if len(names) == n {
			return names, nil
		}
	}
	return nil, fmt.Errorf("only %d of %d what-if candidates are submitted after t=%.0f", len(names), n, horizon)
}

// scheddEnv is a live what-if service: a session advanced to the
// midpoint of its trace behind the schedd handler on a loopback
// server, with W fork-pool slots and W client connections.
type scheddEnv struct {
	sess       *workload.Session
	srv        *httptest.Server
	gen        *loadgen
	candidates []string // in the order the run's seed asks about them
	seed       int64
	mid        float64
	w          int
	mixedSent  int // open-loop requests issued so far; positions the schedule
}

// bootSchedd builds the trace, opens the session under easy, advances
// it to the midpoint of the submissions and starts the server. The
// candidates lie candidateLead beyond the furthest time the session's
// open-loop budget can advance it to.
func bootSchedd(e *env, probe obs.Probe) (*scheddEnv, error) {
	sc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{Seed: scheddTraceSeed, Jobs: e.sz.ScheddJobs, Nodes: 4})
	if err != nil {
		return nil, err
	}
	sc.Probe = probe
	policy, err := sched.New("easy")
	if err != nil {
		return nil, err
	}
	sess, err := workload.NewSchedSession(sc, policy)
	if err != nil {
		return nil, err
	}
	mid := sc.Subs[len(sc.Subs)/2].At
	sess.RunUntil(mid)
	furthest := mid + float64(maxMixedRequests/mixedCycle*advanceStep)
	cands, err := pickCandidates(sc.Subs, furthest+candidateLead, e.sz.Candidates)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	srv := httptest.NewServer(schedd.NewServer(sess, e.w).Handler())
	return &scheddEnv{
		sess: sess, srv: srv, gen: newLoadgen(srv.URL, e.w),
		candidates: cands, seed: e.seed, mid: mid, w: e.w,
	}, nil
}

func (s *scheddEnv) close() {
	s.gen.client.CloseIdleConnections()
	s.srv.Close()
}

// whatIf is the request for a prediction on the i-th candidate.
func (s *scheddEnv) whatIf(i int) request {
	return request{kind: "whatif", method: "GET", path: "/whatif?job=" + url.QueryEscape(s.candidates[i%len(s.candidates)])}
}

// mixedRequest is the i-th request of the open-loop schedule. Four in
// five are what-ifs over the candidates; every fifth is a mutation,
// rotating advance (+5 virtual s), submit, state and cancel of the job
// the previous cycle submitted — 30 requests earlier, so the submit
// has long completed when its cancel is due.
func (s *scheddEnv) mixedRequest(i int) request {
	if i%5 != 4 {
		return s.whatIf(i)
	}
	cycle := i / mixedCycle
	switch i % mixedCycle / 5 {
	case 0:
		until := s.mid + float64((cycle+1)*advanceStep)
		return request{kind: "advance", method: "POST", path: "/advance", body: fmt.Sprintf(`{"until": %g}`, until)}
	case 1:
		threads := 1 << ((s.seed + int64(cycle)) & 3)
		return request{kind: "submit", method: "POST", path: "/submit", body: fmt.Sprintf(
			`{"name": "bench-%d", "app": "pils", "nodes": 1, "ranks": 1, "threads": %d, "walltime": 3600, "malleable": true}`, cycle, threads)}
	case 3:
		if cycle > 0 {
			return request{kind: "cancel", method: "POST", path: "/cancel", body: fmt.Sprintf(`{"name": "bench-%d"}`, cycle-1)}
		}
	}
	return request{kind: "state", method: "GET", path: "/state"}
}

// capacity runs one closed-loop batch of what-ifs from W clients and
// returns the samples and the batch's answered what-ifs per second.
func (s *scheddEnv) capacity(tc *traceCtx, n int, keepBodies bool) ([]sample, float64) {
	samples, wall := s.gen.run(tc, s.w, n, 0, keepBodies, s.whatIf)
	return samples, float64(int64(n)-failures(samples)) / wall.Seconds()
}

// mixed runs the next n requests of the open-loop schedule at the
// given rate. It refuses to run past the session's open-loop budget.
func (s *scheddEnv) mixed(tc *traceCtx, n int, rate float64) ([]sample, error) {
	from := s.mixedSent
	if from+n > maxMixedRequests {
		return nil, fmt.Errorf("schedd: %d more open-loop requests would advance the session past its candidates' lead (budget %d, %d sent): %w", n, maxMixedRequests, from, errSpent)
	}
	s.mixedSent += n
	samples, _ := s.gen.run(tc, s.w, n, rate, false, func(i int) request { return s.mixedRequest(from + i) })
	return samples, nil
}

// predictionDigest covers the predictions of a closed-loop batch:
// candidate, predicted start to 1 ms and placement. With no mutation
// in flight every what-if on one candidate must give the same answer,
// so the digest is over the distinct lines. It also returns the mean
// predicted wait over the distinct jobs.
func predictionDigest(samples []sample) (digest string, meanWait float64, problems []string) {
	byJob := make(map[string]string)
	var waits float64
	for _, smp := range samples {
		var p schedd.WhatIf
		if err := json.Unmarshal(smp.body, &p); err != nil || !smp.ok {
			problems = append(problems, fmt.Sprintf("what-if reply %q: ok=%v err=%v", smp.body, smp.ok, err))
			continue
		}
		line := fmt.Sprintf("%s %.3f %s", p.Job, p.Start, p.Placement)
		if p.Start < p.ForkedAt {
			problems = append(problems, fmt.Sprintf("%s predicted to start at %v, before the fork at %v", p.Job, p.Start, p.ForkedAt))
		}
		if prev, seen := byJob[p.Job]; seen {
			if prev != line {
				problems = append(problems, fmt.Sprintf("two predictions for one job with no mutation between: %q, %q", prev, line))
			}
			continue
		}
		byJob[p.Job] = line
		waits += p.Wait
	}
	lines := make([]string, 0, len(byJob))
	for _, l := range byJob {
		lines = append(lines, l)
	}
	return digestLines(lines), waits / math.Max(1, float64(len(lines))), problems
}

// scheddMixed drives the what-if service the way its users do. One
// trial is a round: a closed-loop batch of what-ifs with no mutation
// in flight (the capacity figure), then an open-loop segment at a
// fixed rate in which one request in five mutates the live session
// (the latency figure, timed from each request's due instant).
type scheddMixed struct {
	e      *env
	env    *scheddEnv
	rounds int
}

func (s *scheddMixed) setup(tc *traceCtx) error {
	var probe obs.Probe
	if tc != nil {
		probe = tc.probe
	}
	var err error
	tc.span("session-boot", "workload", func() { s.env, err = bootSchedd(s.e, probe) })
	s.rounds = 0
	return err
}

func (s *scheddMixed) trial(tc *traceCtx) (trialOut, error) {
	first := s.rounds == 0
	s.rounds++
	out := trialOut{requests: make(map[string]int64)}
	// tally books a batch of samples: attempts, failures, requests by
	// kind and the time they spent in the service.
	tally := func(samples []sample) {
		out.ops += int64(len(samples))
		out.failed += failures(samples)
		for _, smp := range samples {
			out.requests[smp.kind]++
			out.busy += smp.svcMs / 1e3
		}
	}
	var err error
	events0 := s.env.sess.Engine().Processed()
	t0 := time.Now()
	tc.span("capacity", "schedd", func() {
		samples, rate := s.env.capacity(tc, s.e.sz.Batch, first)
		tally(samples)
		out.opsPerS = rate
		if first {
			// Before any mutation the predictions are a function of the
			// trace alone: they are the round's checked output.
			out.obs = &observed{Jobs: len(s.env.sess.Controller().Records.Jobs)}
			out.obs.Digest, out.obs.MeanWaitS, out.problems = predictionDigest(samples)
		}
	})
	tc.span("mixed", "schedd", func() {
		var samples []sample
		samples, err = s.env.mixed(tc, int(s.e.sz.Rate*s.e.sz.MixedSeconds), s.e.sz.Rate)
		tally(samples)
		out.latMs = latencies(samples, isWhatIf)
	})
	out.wall = time.Since(t0).Seconds()
	out.events = s.env.sess.Engine().Processed() - events0 // the live lineage's; forks are the service's own
	if out.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d requests did not get a 2xx reply", out.failed, out.ops))
	}
	return out, err
}

func (s *scheddMixed) close() {
	if s.env != nil {
		s.env.close()
		s.env = nil
	}
}
