package workload

// Streaming replay: run SWF-scale workloads without materializing the
// trace. A SubmissionSource yields submissions one at a time in
// submit order; the Session driver keeps exactly one pending
// submission event in the simulation queue and, for a lazy source,
// folds job records into aggregate statistics, so a million-job trace
// replays in memory bounded by the cluster backlog, not the trace
// length.

import (
	"io"
	"math/rand"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// SubmissionSource yields submissions, normally in nondecreasing At
// order; a record whose submit time precedes the stream position is
// tolerated and treated as arriving immediately (real SWF archives
// occasionally contain out-of-order records). ok is false when the
// stream is exhausted (sub is then ignored).
type SubmissionSource interface {
	Next() (sub Submission, ok bool, err error)
}

// SyntheticSource streams the seeded synthetic SWF generator through
// the trace→cluster mapping without materializing either: the trace
// it replays is bit-identical to Generate + SWFScenario.
type SyntheticSource struct {
	p     SyntheticSWF
	r     *rand.Rand
	genAt float64
	genCS hwmodel.ClusterSpec // generator's cluster (partition shapes)

	mapper swfMapper
	i      int
	err    error // the generator's check, answered by every Next
}

// Source returns a streaming generator equivalent to Generate() +
// SWFScenario mapping on the generator's cluster (p.Nodes MN3 nodes,
// or p.Cluster when set).
func (p SyntheticSWF) Source() *SyntheticSource {
	err := p.check()
	p = p.withDefaults()
	return &SyntheticSource{
		p:      p,
		r:      rand.New(rand.NewSource(p.Seed)),
		genCS:  p.clusterSpec(),
		mapper: newSWFMapper(SWFOptions{Nodes: p.Nodes, Cluster: p.Cluster}),
		err:    err,
	}
}

// Cluster returns the layout the source maps onto.
func (s *SyntheticSource) Cluster() hwmodel.ClusterSpec { return s.mapper.cluster }

// Next implements SubmissionSource. Unusable records are skipped (the
// synthetic generator produces none on its own defaults).
func (s *SyntheticSource) Next() (Submission, bool, error) {
	if s.err != nil {
		return Submission{}, false, s.err
	}
	for s.i < s.p.Jobs {
		j := s.p.genJob(s.r, s.i, &s.genAt, s.genCS)
		idx := s.i
		s.i++
		sub, ok := s.mapper.Map(j, idx)
		if !ok {
			continue
		}
		return sub, true, nil
	}
	return Submission{}, false, nil
}

// Dropped returns the per-status drop classification so far.
func (s *SyntheticSource) Dropped() metrics.DropStats { return s.mapper.drops }

// SWFReaderSource streams records from an SWF reader through the
// trace→cluster mapping, skipping unusable records. It reads only as
// far as it has been pulled. If the reader is an io.Closer it is
// closed — exactly once — when the source ends: end of input, parse
// error, MaxJobs reached, or Close; file-backed sources never leak
// descriptors.
type SWFReaderSource struct {
	scan    *swfScanner // nil once the source has ended
	closer  io.Closer   // the reader, when it is one
	mapper  swfMapper
	maxJobs int
	emitted int
	idx     int
	err     error // o's check, answered by the first Next
}

// NewSWFReaderSource streams r's records as submissions mapped onto
// the cluster shape of o, parsing one record per pull.
func NewSWFReaderSource(r io.Reader, o SWFOptions) *SWFReaderSource {
	c, _ := r.(io.Closer)
	s := &SWFReaderSource{
		scan:    newSWFScanner(r),
		closer:  c,
		mapper:  newSWFMapper(o),
		maxJobs: o.MaxJobs,
	}
	s.err = o.check()
	return s
}

// Close ends the source without reading the rest of the input;
// further Next calls report exhaustion. Always safe to call, any
// number of times.
func (s *SWFReaderSource) Close() error {
	if s.scan == nil {
		return nil
	}
	s.scan = nil
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// Next implements SubmissionSource.
func (s *SWFReaderSource) Next() (Submission, bool, error) {
	if s.err != nil {
		s.Close()
		return Submission{}, false, s.err
	}
	for s.scan != nil && (s.maxJobs <= 0 || s.emitted < s.maxJobs) {
		job, ok, err := s.scan.next()
		if err != nil || !ok {
			s.Close()
			return Submission{}, false, err
		}
		idx := s.idx
		s.idx++
		sub, mapped := s.mapper.Map(job, idx)
		if !mapped {
			continue
		}
		s.emitted++
		return sub, true, nil
	}
	// MaxJobs reached (the rest of the file is never read) or already
	// closed.
	s.Close()
	return Submission{}, false, nil
}

// Cluster returns the layout the source maps onto.
func (s *SWFReaderSource) Cluster() hwmodel.ClusterSpec { return s.mapper.cluster }

// Dropped returns the per-status drop classification so far.
func (s *SWFReaderSource) Dropped() metrics.DropStats { return s.mapper.drops }

// RunSchedStream replays a submission stream under a scheduling
// policy on the cluster described by s (s.Subs is ignored; every
// other Scenario field applies as in RunSchedSet). The given instance
// drives the first partition; further partitions get fresh instances
// of the same policy (slurm.Controller.UseSched). Job records are
// folded into aggregate statistics as they complete
// (metrics.Workload.SetAggregate), so memory use is bounded by the
// scheduler backlog, not the stream length: this is the path the
// million-job replays use. It is the same driver as RunSchedSet, so
// for a stream in submit order the decision sequence is identical to
// materializing the trace. An out-of-order record is the one
// divergence — it is submitted at the stream position (now), whereas
// a materialized []Submission is sorted first. A source that is an
// io.Closer is closed before this returns, on every path.
func RunSchedStream(s Scenario, src SubmissionSource, p sched.Policy) Result {
	return replay(s, src, slurm.PolicyDROM, useSched(p))
}

// SchedStatsOfStream computes the scheduler-quality metrics of a
// streamed run (no per-job widths are available, so Demand stays 0).
func SchedStatsOfStream(res Result) metrics.SchedStats {
	return metrics.NewSchedStats(res.Records, nil, 0)
}
