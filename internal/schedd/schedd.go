// Package schedd is the what-if scheduling service: an HTTP facade
// over one live simulated cluster (a workload.Session) that accepts
// submissions, cancellations and malleability changes against the
// live lineage, and answers `what if` queries — "when would this
// queued job start, under this policy?" — from a projection of the
// live state: a fork of the whole simulation at the current virtual
// time that runs forward on demand and records each job's first start.
// The live lineage is never advanced or perturbed by a prediction.
//
// There is one projection per live state and policy. Every what-if on
// an unchanged session reads the same fork, which runs only as far as
// the latest-starting job anyone has asked about. A fork is
// deterministic, so that shared lineage is the one a private fork of
// the same state would run, and its answers are the same. Every
// mutation drops all projections; a request that already holds one
// finishes on it, answering for the state at the moment it took the
// lock.
//
// Concurrency: the Session is not safe for concurrent use, so every
// touch of the live lineage happens under one mutex. A what-if holds
// it only to find or fork its projection (a fork is proportional to
// live state, not to remaining work); the projection then runs under
// its own mutex, outside the session lock, so mutations never wait on
// a prediction. What-ifs on one projection take turns, each running it
// past what the ones before it left; what-ifs on different projections
// run in parallel. The session lock is never taken while a
// projection's is held. A counting semaphore (the fork pool) bounds
// how many what-ifs fork or run a projection at once.
package schedd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// maxBody bounds a request body, in bytes.
const maxBody = 1 << 20

// ctxCheckSteps is how many Step calls a what-if makes between checks
// that its client is still waiting. A call is one executed event or one
// move of armed chains, which may take many engine steps.
const ctxCheckSteps = 4096

// Server owns one live session and serves the schedd API.
type Server struct {
	mu   sync.Mutex
	sess *workload.Session
	// submits remembers each job's submission virtual time (scenario
	// jobs at construction, API jobs as they arrive) so what-if
	// responses can report the predicted wait, not just the start.
	submits map[string]float64
	// proj holds the projections of the current live state, keyed by
	// the what-if's policy query value ("" is the live policy). Every
	// mutation drops them all.
	proj    map[string]*projection
	forkSem chan struct{}
}

// projection is a fork of the live session that runs forward on
// demand, shared by every what-if on that state and policy. mu guards
// the fork and what it has recorded.
type projection struct {
	mu       sync.Mutex
	sess     *workload.Session
	forkedAt float64
	// starts holds each job's first start the fork's probe saw. fresh
	// holds the starts of the step in progress; they are committed to
	// starts only if the lineage is still healthy when the step ends,
	// as a private fork stopped at that start would have found it.
	starts  map[string]WhatIf
	fresh   []WhatIf
	drained bool
}

// NewServer wraps a session. forks bounds how many what-ifs fork or
// run a projection at once (values < 1 mean 1).
func NewServer(sess *workload.Session, forks int) *Server {
	if forks < 1 {
		forks = 1
	}
	s := &Server{
		sess:    sess,
		submits: make(map[string]float64),
		forkSem: make(chan struct{}, forks),
	}
	for i := range sess.Scenario().Subs {
		sub := &sess.Scenario().Subs[i]
		s.submits[sub.Job.Name] = sub.At
	}
	return s
}

// Handler returns the schedd API as a net/http handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/cancel", s.handleCancel)
	mux.HandleFunc("/malleable", s.handleMalleable)
	mux.HandleFunc("/advance", s.handleAdvance)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/whatif", s.handleWhatIf)
	return mux
}

// State is the live-cluster summary of GET /state (and the tail of
// every mutating response).
type State struct {
	Now       float64 `json:"now"`
	Queue     int     `json:"queue"`
	Running   int     `json:"running"`
	Completed int     `json:"completed"`
	Events    int64   `json:"events"`
}

// stateLocked reads the summary; callers hold s.mu.
func (s *Server) stateLocked() State {
	ctl := s.sess.Controller()
	return State{
		Now:       s.sess.Now(),
		Queue:     ctl.QueueLen(),
		Running:   ctl.RunningLen(),
		Completed: ctl.Records.Count(),
		Events:    s.sess.Engine().Processed(),
	}
}

// SubmitRequest is the POST /submit body: an sbatch-shaped job
// description. App selects the calibrated application model (nest,
// coreneuron, pils, stream); ranks×threads is the Table-1 style
// configuration.
type SubmitRequest struct {
	Name      string  `json:"name"`
	App       string  `json:"app"`
	Ranks     int     `json:"ranks"`
	Threads   int     `json:"threads"`
	Iters     int     `json:"iters"`
	Nodes     int     `json:"nodes"`
	Priority  int     `json:"priority"`
	Walltime  float64 `json:"walltime"`
	Malleable bool    `json:"malleable"`
	Partition string  `json:"partition"`
}

// specByName maps an App name to its calibrated model.
func specByName(name string) (apps.Spec, error) {
	switch strings.ToLower(name) {
	case "nest":
		return apps.NEST(), nil
	case "coreneuron":
		return apps.CoreNeuron(), nil
	case "pils", "":
		return apps.Pils(), nil
	case "stream":
		return apps.STREAM(), nil
	}
	return apps.Spec{}, fmt.Errorf("unknown app %q (want nest, coreneuron, pils or stream)", name)
}

// Job converts the request into a controller submission.
func (req *SubmitRequest) Job() (slurm.Job, error) {
	spec, err := specByName(req.App)
	if err != nil {
		return slurm.Job{}, err
	}
	if req.Name == "" {
		return slurm.Job{}, fmt.Errorf("job name required")
	}
	nodes := req.Nodes
	if nodes == 0 {
		nodes = 2 // the paper's default allocation shape
	}
	ranks := req.Ranks
	if ranks == 0 {
		ranks = nodes
	}
	threads := req.Threads
	if threads == 0 {
		threads = 1
	}
	return slurm.Job{
		Name:      req.Name,
		Spec:      spec,
		Cfg:       apps.Config{Ranks: ranks, Threads: threads},
		Iters:     req.Iters,
		Nodes:     nodes,
		Priority:  req.Priority,
		Walltime:  req.Walltime,
		Malleable: req.Malleable,
		Partition: req.Partition,
	}, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decode reads a POST body of at most maxBody bytes into v, refusing
// a field v does not have.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "bad request body: %v", err)
		return false
	}
	return true
}

// mutate applies one live mutation under s.mu and replies with the new
// state; every mutating endpoint goes through it. fn returns the
// reply's status. A 4xx refuses the request before it touches the live
// lineage, so the projections survive it; any other status may follow
// a change, so every projection is dropped.
func (s *Server) mutate(w http.ResponseWriter, fn func() (int, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	code, err := fn()
	if code < 400 || code >= 500 {
		s.proj = nil
	}
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.stateLocked())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	job, err := req.Job()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mutate(w, func() (int, error) {
		// A name is the job's handle in every later request, and the
		// wait a what-if reports is measured from its first submission:
		// a name the boot trace or an earlier submit used is taken.
		if _, seen := s.submits[job.Name]; seen {
			return http.StatusConflict, fmt.Errorf("job name %q is already taken", job.Name)
		}
		if err := s.sess.Controller().Submit(&job); err != nil {
			return http.StatusUnprocessableEntity, err
		}
		s.submits[job.Name] = s.sess.Now()
		return http.StatusOK, nil
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if !decode(w, r, &req) {
		return
	}
	s.mutate(w, func() (int, error) {
		if !s.sess.Controller().Cancel(req.Name) {
			return http.StatusNotFound, fmt.Errorf("no queued or running job %q", req.Name)
		}
		return http.StatusOK, nil
	})
}

func (s *Server) handleMalleable(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name      string `json:"name"`
		Malleable bool   `json:"malleable"`
	}
	if !decode(w, r, &req) {
		return
	}
	s.mutate(w, func() (int, error) {
		if !s.sess.Controller().SetQueuedMalleable(req.Name, req.Malleable) {
			return http.StatusNotFound, fmt.Errorf("no queued job %q", req.Name)
		}
		return http.StatusOK, nil
	})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Until float64 `json:"until"`
	}
	if !decode(w, r, &req) {
		return
	}
	s.mutate(w, func() (int, error) {
		if req.Until < s.sess.Now() {
			return http.StatusBadRequest, fmt.Errorf("until=%g is in the past (now=%g)", req.Until, s.sess.Now())
		}
		s.sess.RunUntil(req.Until)
		if err := s.sess.Err(); err != nil {
			return http.StatusInternalServerError, err
		}
		return http.StatusOK, nil
	})
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.stateLocked())
}

// WhatIf is the GET /whatif response: the projection's prediction for
// the candidate job. Wait is -1 when the submission time is unknown to
// the server.
type WhatIf struct {
	Job       string  `json:"job"`
	Policy    string  `json:"policy,omitempty"`
	ForkedAt  float64 `json:"forked_at"`
	Start     float64 `json:"start"`
	Wait      float64 `json:"wait"`
	Placement string  `json:"placement"`
	Partition string  `json:"partition"`
	Origin    string  `json:"origin,omitempty"`
	Nodes     int     `json:"nodes"`
	CPUs      int     `json:"cpus"`
}

// handleWhatIf answers GET /whatif?job=NAME[&policy=NAME] from the
// projection of the live state under that policy, forking it under the
// session lock on first use and running it forward outside that lock
// until the candidate starts.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	name, policy := q.Get("job"), q.Get("policy")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "job parameter required")
		return
	}

	s.forkSem <- struct{}{}
	defer func() { <-s.forkSem }()

	s.mu.Lock()
	submit, haveSubmit := s.submits[name]
	p, code, err := s.projectionLocked(policy)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}

	pred, code, err := p.find(r.Context(), name)
	switch {
	case code == 0:
		return // the client has gone; the projection stays resumable
	case err != nil:
		writeErr(w, code, "%v", err)
		return
	}
	pred.Policy = policy
	if haveSubmit {
		pred.Wait = pred.Start - submit
	}
	writeJSON(w, http.StatusOK, pred)
}

// projectionLocked returns the projection of the live state under the
// named policy ("" for the live one), forking it on first use: the
// fork swaps in the policy and gets the probe that records starts.
// Callers hold s.mu.
func (s *Server) projectionLocked(policy string) (*projection, int, error) {
	if p := s.proj[policy]; p != nil {
		return p, http.StatusOK, nil
	}
	var pol sched.Policy
	if policy != "" {
		var err error
		if pol, err = sched.New(policy); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	fork, err := s.sess.Fork()
	if err != nil {
		return nil, http.StatusConflict, fmt.Errorf("fork: %w", err)
	}
	if pol != nil {
		fork.Controller().UseSched(pol)
	}
	p := &projection{sess: fork, forkedAt: s.sess.Now(), starts: make(map[string]WhatIf)}
	fork.Controller().Probe = obs.Func(p.record)
	if s.proj == nil {
		s.proj = make(map[string]*projection)
	}
	s.proj[policy] = p
	return p, http.StatusOK, nil
}

// record is the fork's probe: it notes each job's first start.
func (p *projection) record(ev obs.Event) {
	if ev.Kind != obs.KindJobStart {
		return
	}
	if _, seen := p.starts[ev.Job]; seen {
		return
	}
	p.fresh = append(p.fresh, WhatIf{
		Job: ev.Job, ForkedAt: p.forkedAt, Start: ev.Time, Wait: -1,
		Placement: ev.Placement, Partition: ev.Partition, Origin: ev.Origin,
		Nodes: ev.Nodes, CPUs: ev.CPUs,
	})
}

// find returns the job's first start in the projection with status
// 200, stepping the fork until that start is recorded; 500 once the
// lineage has failed and 404 once it has drained without it. Every
// ctxCheckSteps Step calls it checks ctx and returns status 0 if ctx is
// done: it stops between steps, so the projection stays exact and the
// next what-if resumes it. Step, not Run, because Engine.Stop cannot be
// undone.
func (p *projection) find(ctx context.Context, name string) (WhatIf, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng := p.sess.Engine()
	for i := 0; ; i++ {
		if pred, ok := p.starts[name]; ok {
			return pred, http.StatusOK, nil
		}
		if err := p.sess.Err(); err != nil {
			return WhatIf{}, http.StatusInternalServerError, fmt.Errorf("what-if lineage failed: %w", err)
		}
		if p.drained {
			return WhatIf{}, http.StatusNotFound, fmt.Errorf("job %q never starts in the forked lineage", name)
		}
		if i%ctxCheckSteps == 0 && ctx.Err() != nil {
			return WhatIf{}, 0, ctx.Err()
		}
		p.drained = !eng.Step()
		if p.sess.Err() == nil {
			for _, pred := range p.fresh {
				if _, seen := p.starts[pred.Job]; !seen {
					p.starts[pred.Job] = pred
				}
			}
		}
		p.fresh = p.fresh[:0]
	}
}
