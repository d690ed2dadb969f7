// Package schedd is the what-if scheduling service: an HTTP facade
// over one live simulated cluster (a workload.Session) that accepts
// submissions, cancellations and malleability changes against the
// live lineage, and answers `what if` queries — "when would this
// queued job start, under this policy?" — by forking the whole
// simulation at the current virtual time and running the fork forward
// until the candidate launches. Forks are throwaway: the live lineage
// is never advanced or perturbed by a prediction.
//
// Concurrency: the Session is not safe for concurrent use, so every
// touch of the live lineage happens under one mutex. A what-if only
// holds that mutex for the fork itself (cheap — proportional to live
// state, not to remaining work); the forked simulation then runs
// outside the lock, so concurrent what-ifs proceed in parallel and
// never block submissions. A counting semaphore (the fork pool)
// bounds how many forks are in flight at once.
package schedd

import (
	"encoding/json"
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

// Server owns one live session and serves the schedd API.
type Server struct {
	mu   sync.Mutex
	sess *workload.Session
	// submits remembers each job's submission virtual time (scenario
	// jobs at construction, API jobs as they arrive) so what-if
	// responses can report the predicted wait, not just the start.
	submits map[string]float64
	forkSem chan struct{}
}

// NewServer wraps a session. forks bounds concurrently running
// what-if forks (values < 1 mean 1).
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

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sess.Controller().Submit(&job); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.submits[job.Name] = s.sess.Now()
	writeJSON(w, http.StatusOK, s.stateLocked())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if !decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sess.Controller().Cancel(req.Name) {
		writeErr(w, http.StatusNotFound, "no queued or running job %q", req.Name)
		return
	}
	writeJSON(w, http.StatusOK, s.stateLocked())
}

func (s *Server) handleMalleable(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name      string `json:"name"`
		Malleable bool   `json:"malleable"`
	}
	if !decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sess.Controller().SetQueuedMalleable(req.Name, req.Malleable) {
		writeErr(w, http.StatusNotFound, "no queued job %q", req.Name)
		return
	}
	writeJSON(w, http.StatusOK, s.stateLocked())
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Until float64 `json:"until"`
	}
	if !decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Until < s.sess.Now() {
		writeErr(w, http.StatusBadRequest, "until=%g is in the past (now=%g)", req.Until, s.sess.Now())
		return
	}
	s.sess.RunUntil(req.Until)
	if err := s.sess.Err(); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.stateLocked())
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.stateLocked())
}

// WhatIf is the GET /whatif response: the forked lineage's prediction
// for the candidate job. Wait is -1 when the submission time is
// unknown to the server.
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

// handleWhatIf answers GET /whatif?job=NAME[&policy=NAME]: fork the
// live simulation, optionally swap the scheduling policy on the fork,
// run it forward until the candidate starts, and report the predicted
// start. The fork happens under the session lock; the simulation runs
// outside it.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	name := q.Get("job")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "job parameter required")
		return
	}
	var policy sched.Policy
	if pn := q.Get("policy"); pn != "" {
		p, err := sched.New(pn)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		policy = p
	}

	s.forkSem <- struct{}{}
	defer func() { <-s.forkSem }()

	s.mu.Lock()
	forkedAt := s.sess.Now()
	submit, haveSubmit := s.submits[name]
	fork, err := s.sess.Fork()
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusConflict, "fork: %v", err)
		return
	}

	ctl, eng := fork.Controller(), fork.Engine()
	if policy != nil {
		ctl.UseSched(policy)
	}
	pred := WhatIf{Job: name, Policy: q.Get("policy"), ForkedAt: forkedAt, Start: -1, Wait: -1}
	found := false
	ctl.Probe = obs.Func(func(ev obs.Event) {
		switch {
		case ev.Kind == obs.KindSubmit && ev.Job == name && !haveSubmit:
			// The candidate is still upstream in the scenario stream;
			// its submission replays inside the fork.
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
	if err := fork.Err(); err != nil {
		writeErr(w, http.StatusInternalServerError, "what-if lineage failed: %v", err)
		return
	}
	if !found {
		writeErr(w, http.StatusNotFound, "job %q never starts in the forked lineage", name)
		return
	}
	if haveSubmit {
		pred.Wait = pred.Start - submit
	}
	writeJSON(w, http.StatusOK, pred)
}
