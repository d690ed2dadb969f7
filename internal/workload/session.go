package workload

// Session is the one replay driver: every entry point of the package
// (Spec.Open, RunPaper, Run, RunSchedSet, RunSchedStream,
// NewSchedSession) opens one over a SubmissionSource and either drains
// it (Run) or holds it open so the caller can advance virtual time
// incrementally (RunUntil), fork the whole simulation state at any
// instant, and keep both lineages running independently with
// byte-identical decisions. The schedd
// what-if service and the fork/replay test suites are consumers of the
// open form.
//
// Submissions execute in the engine's front band — on a same-instant
// tie a submission runs before every regular event — and the engine
// never holds more than one of them: records due now are delivered
// inline, the next later one is the single pending submission event.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/trace"
)

// sliceSource serves a materialized []Submission in stable submit-time
// order (ties keep slice order). It is the one forkable source: subs
// and order are immutable and shared, the cursor is copied.
type sliceSource struct {
	subs   []Submission
	order  []int
	cursor int
}

// reset makes s serve subs from the start, in order's array when it is
// large enough. Only a kit's own source is reset, and only a pooled kit
// resets it twice; a pooled kit never forks, so no fork shares an
// array a reset rewrites.
func (s *sliceSource) reset(subs []Submission) {
	order := s.order[:0]
	for i := range subs {
		order = append(order, i)
	}
	// A stable sort on At's own order, without the reflect-based
	// swapper and closure a sort.SliceStable allocates.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case subs[a].At < subs[b].At:
			return -1
		case subs[b].At < subs[a].At:
			return 1
		}
		return 0
	})
	*s = sliceSource{subs: subs, order: order}
}

// Next implements SubmissionSource.
func (s *sliceSource) Next() (Submission, bool, error) {
	if s.cursor >= len(s.order) {
		return Submission{}, false, nil
	}
	sub := s.subs[s.order[s.cursor]]
	s.cursor++
	return sub, true, nil
}

// errForkLazy is Fork's answer on a session fed by anything but a
// []Submission: a lazy source cannot be read twice.
var errForkLazy = errors.New("workload: Fork needs a slice-backed session (a lazy SubmissionSource cannot be replayed into two lineages)")

// Session is an open scenario execution. Not safe for concurrent use;
// serialize access externally (see internal/schedd).
type Session struct {
	scn Scenario
	eng *sim.Engine
	ctl *slurm.Controller
	src SubmissionSource
	// next is the record the one pending submission event delivers.
	next Submission
	// cancels holds the job name of each pending scancel timer, in the
	// slot its cancelClass event names.
	cancels sim.Slots[string]
	// jobs is the slab the controller's copy of each submitted Job is
	// taken from (newJob). A fork starts without one, so two lineages
	// never append into one backing array; a session reset on its kit
	// refills its last one (reset).
	jobs []slurm.Job
	err  error
}

// The job slab's first and largest capacity: a session's slabs double
// from jobSlabMin up to jobSlabMax jobs each.
const (
	jobSlabMin = 2
	jobSlabMax = 256
)

// The session's event classes: the one pending submission, and a
// scancel timer.
var (
	submitClass = sim.NewClass("workload.submit")
	cancelClass = sim.NewClass("workload.scancel")
)

// handle registers the session as the handler of its classes on its
// engine — in the live lineage and in every fork, each session itself
// (Fire), so registering allocates nothing and no fork runs its parent.
func (s *Session) handle() {
	s.eng.Handle(submitClass, s)
	s.eng.Handle(cancelClass, s)
}

// Fire is the engine's callback for the session's events
// (sim.Handler): the pending submission — deliver, then pump on — or
// the scancel timer in a slot.
func (s *Session) Fire(c sim.Class, slot int32) {
	if c == cancelClass {
		s.ctl.Cancel(s.cancels.Take(slot))
		return
	}
	s.submit(&s.next)
	s.pump()
}

// closeSource releases src if it holds a resource.
func closeSource(src SubmissionSource) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// check refuses the run knobs no replay can use.
func (s Scenario) check() error {
	if f := s.JitterFrac; !(f >= 0 && f < 1) {
		// Past 1 a factor 1 + f·(2u−1) can be negative; NaN would read as off.
		return fmt.Errorf("workload: JitterFrac %v outside [0, 1)", f)
	}
	for _, v := range []struct {
		name string
		x    float64
	}{{"MTBF", s.MTBF}, {"MTTR", s.MTTR}, {"SpillAfter", s.SpillAfter}} {
		if !(v.x >= 0) || math.IsInf(v.x, 1) {
			// An infinite mean is an event at +Inf; NaN would read as off.
			return fmt.Errorf("workload: %s %v is not a finite value >= 0", v.name, v.x)
		}
	}
	if s.SpillDepth < 0 {
		return fmt.Errorf("workload: SpillDepth %d is negative", s.SpillDepth)
	}
	if err := hwmodel.CheckNodes(s.Nodes); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// open wires a scenario once — engine, cluster (file-backed when
// ShmemDir is set), controller, scheduling installer, faults, probe —
// on kit k, resetting each of its parts, and starts feeding it
// from src: records due at t=0 are submitted before it returns. A nil
// src replays s.Subs, from the kit's own slice source. A source that
// knows the cluster it mapped its submissions onto (Cluster())
// supplies the layout unless s.Cluster overrides it. Any source but a
// []Submission puts the records in aggregate mode, so memory is
// bounded by the scheduler backlog rather than the stream length; a
// []Submission's records are sized for it once.
//
// A source that is an io.Closer is closed when open fails, and by Run
// once the replay is drained: an abandoned SWFReaderSource would
// otherwise keep its trace file open.
func open(k *kit, s Scenario, src SubmissionSource, policy slurm.Policy, install func(*slurm.Controller) error) (_ *Session, err error) {
	defer func() {
		if err != nil {
			closeSource(src)
		}
	}()
	if err := s.check(); err != nil {
		return nil, err
	}
	if src == nil {
		k.src.reset(s.Subs)
		src = &k.src
	}
	if len(s.Cluster.Partitions) == 0 {
		if cs, ok := src.(interface{ Cluster() hwmodel.ClusterSpec }); ok {
			s.Cluster = cs.Cluster()
		}
	}
	eng := &k.eng
	eng.Reset()
	var tr *trace.Tracer
	if s.Trace {
		tr = trace.New()
	}
	var reg *shmem.Registry
	if s.ShmemDir != "" {
		fb, err := shmem.NewFileBackend(s.ShmemDir)
		if err != nil {
			return nil, fmt.Errorf("workload: shmem dir: %w", err)
		}
		reg = shmem.NewRegistryWith(fb)
	}
	if err := k.cluster.Reset(eng, s.clusterSpec(), tr, reg); err != nil {
		return nil, err
	}
	if s.JitterFrac > 0 {
		// Run-to-run variability as on the paper's real machine
		// (reported CV up to 3.4%), continued by every fork.
		eng.SetJitter(k.jitter(s.Seed), s.JitterFrac)
	}
	ctl := &k.ctl
	ctl.Reset(&k.cluster, policy)
	if err := installSched(ctl, s, install); err != nil {
		return nil, err
	}
	ctl.DebugInvariants = s.DebugInvariants
	installProbe(eng, ctl, s)
	if ss, ok := src.(*sliceSource); ok {
		ctl.Records.Grow(len(ss.subs))
	} else {
		ctl.Records.SetAggregate()
	}
	sess := &k.sess
	sess.reset(s, eng, ctl, src)
	sess.handle()
	sess.pump()
	if sess.err != nil {
		return nil, sess.err
	}
	return sess, nil
}

// reset makes s a session of scenario scn over eng, ctl and src, with
// no pending submission, scancel timer or error; the timer table keeps
// its arrays, and the job slab its last one, emptied. Refilling that
// slab is safe: only a kit's session is reset, with its controller,
// and what the kit's last replay handed out — records, a tracer —
// holds no pointer into a Job; a fork starts with no slab.
func (s *Session) reset(scn Scenario, eng *sim.Engine, ctl *slurm.Controller, src SubmissionSource) {
	s.cancels.Reset()
	clear(s.jobs)
	*s = Session{scn: scn, eng: eng, ctl: ctl, src: src, cancels: s.cancels, jobs: s.jobs[:0]}
}

// useSched / useSchedSet are the scheduling installers of the sched
// entry points.
func useSched(p sched.Policy) func(*slurm.Controller) error {
	return func(ctl *slurm.Controller) error {
		ctl.UseSched(p)
		return nil
	}
}

func useSchedSet(ps sched.PolicySet) func(*slurm.Controller) error {
	return func(ctl *slurm.Controller) error { return ctl.UseSchedSet(ps) }
}

// NewSchedSession opens a scenario under an internal/sched policy:
// the given instance drives the first partition, fresh instances of
// the same policy the rest. At==0 submissions are delivered
// synchronously before this returns.
func NewSchedSession(s Scenario, p sched.Policy) (*Session, error) {
	return open(new(kit), s, nil, slurm.PolicyDROM, useSched(p))
}

// pump feeds the controller from the source: every record due now is
// submitted inline — same-instant submissions, and out-of-order
// records, which real SWF archives occasionally contain and which
// arrive at the stream position — and the first later record becomes
// the single pending front-band event.
func (s *Session) pump() {
	for s.err == nil {
		sub, ok, err := s.src.Next()
		if err != nil {
			s.err = err
			return
		}
		if !ok {
			return
		}
		if sub.At <= s.eng.Now() {
			s.submit(&sub)
			continue
		}
		s.next = sub
		s.eng.PostFront(sub.At, submitClass, 0)
		return
	}
}

// submit delivers one submission (the controller gets its own Job
// copy, from the slab) and arms its scancel timer, clamped to "now" so
// a cancellation recorded before the stream position still fires.
func (s *Session) submit(sub *Submission) {
	job := s.newJob(&sub.Job)
	if err := s.ctl.Submit(job); err != nil {
		s.err = err
		return
	}
	if !sub.Cancel {
		return
	}
	at := sub.CancelAt
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
	s.eng.Post(at, cancelClass, s.cancels.Put(job.Name))
}

// newJob returns a copy of j the controller may keep for the job's
// life. The copies are packed into slabs: a full slab is left to the
// jobs that point into it, and the next one, twice as large up to
// jobSlabMax, is allocated — an entry never moves. The controller
// never writes through the pointer (a change is copied on write, as
// slurm.Controller.SetQueuedMalleable does).
func (s *Session) newJob(j *slurm.Job) *slurm.Job {
	if len(s.jobs) == cap(s.jobs) {
		s.jobs = make([]slurm.Job, 0, min(max(2*cap(s.jobs), jobSlabMin), jobSlabMax))
	}
	s.jobs = append(s.jobs, *j)
	return &s.jobs[len(s.jobs)-1]
}

// Scenario returns the scenario the session replays.
func (s *Session) Scenario() Scenario { return s.scn }

// Engine returns the session's simulation engine.
func (s *Session) Engine() *sim.Engine { return s.eng }

// Controller returns the session's controller.
func (s *Session) Controller() *slurm.Controller { return s.ctl }

// Now returns the current virtual time.
func (s *Session) Now() float64 { return s.eng.Now() }

// RunUntil advances the simulation through every event at time <= t.
func (s *Session) RunUntil(t float64) { s.eng.RunUntil(t) }

// Run drains the simulation to completion, releases the source and
// returns the result.
func (s *Session) Run() Result {
	s.eng.Run()
	closeSource(s.src)
	return s.Result()
}

// Err returns the session's first error: the source's or a rejected
// submission's, else the controller's. It is Result().Err without
// assembling the records.
func (s *Session) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.ctl.Err
}

// Result assembles the scenario result from the state so far (valid
// at any point; final once Run returned). Its Records is a snapshot
// (metrics.Workload.Snapshot) that the session running on never
// changes: Jobs holds every record, the history a forked session
// shares with its parent copied in front of the fork's own. The drop
// counts are the source's when it classifies them as it maps, the
// scenario's otherwise.
func (s *Session) Result() Result { return s.result(s.ctl.Records.Snapshot()) }

// result assembles the scenario result around recs: a snapshot of the
// session's records, or the records themselves once nothing appends
// to them again (a drained one-shot replay).
func (s *Session) result(recs metrics.Workload) Result {
	res := Result{Policy: s.ctl.Policy(), Tracer: s.ctl.Cluster().Tracer, Err: s.Err()}
	res.Records = recs
	res.Records.Dropped = s.scn.Dropped
	if dc, ok := s.src.(interface{ Dropped() metrics.DropStats }); ok {
		res.Records.Dropped = dc.Dropped()
	}
	res.SchedCycles = s.ctl.Cycles
	res.Events = s.eng.Processed()
	res.Steps = res.Events + s.eng.Skipped()
	return res
}

// Fork clones the whole simulation — engine, controller, shared
// memory, instances, the submission cursor and cancel timers — at the
// current virtual time. Both lineages then advance independently and
// decide identically — under an installed sched policy or on the
// builtin controller path (serial, DROM, oversubscribe, preempt) alike.
// Only a slice-backed session forks (every NewSchedSession is one); a
// session over a lazy SubmissionSource returns an error, as does a
// controller that already failed (slurm.Controller.Fork's one refusal).
func (s *Session) Fork() (*Session, error) {
	src, ok := s.src.(*sliceSource)
	if !ok {
		return nil, errForkLazy
	}
	ctl2, eng2, err := s.ctl.Fork()
	if err != nil {
		return nil, err
	}
	if s.ctl.Probe != nil {
		s.ctl.Probe.Emit(obs.Event{
			Kind:    obs.KindFork,
			Time:    s.eng.Now(),
			Queue:   s.ctl.QueueLen(),
			Running: s.ctl.RunningLen(),
		})
	}
	srcCopy := *src
	f := &Session{
		scn: s.scn, eng: eng2, ctl: ctl2, src: &srcCopy, next: s.next, err: s.err,
		cancels: s.cancels.Clone(),
	}
	f.handle()
	if err := eng2.CheckFork(); err != nil {
		return nil, fmt.Errorf("workload: fork: %w", err)
	}
	return f, nil
}
