package workload

// Standard Workload Format (SWF) replay: parse real scheduler traces
// (the Parallel Workloads Archive format, 18 whitespace-separated
// fields per job) or synthesize seeded thousand-job traces, and map
// them onto the simulated DROM cluster so the sched policies can be
// compared at scale instead of on the paper's two-job scenarios.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// swfFields is the fixed record width of the Standard Workload Format.
const swfFields = 18

// SWF completion-status codes (field 11).
const (
	// SWFFailed marks a job that died mid-run (status 0).
	SWFFailed = 0
	// SWFCompleted is a normal termination (status 1).
	SWFCompleted = 1
	// SWFCancelled marks a job cancelled by the user (status 5) —
	// before it started when the runtime field is unknown, mid-run
	// otherwise.
	SWFCancelled = 5
)

// SWFJob is one trace record, reduced to the fields the replay uses.
// Unknown values follow the SWF convention of -1.
type SWFJob struct {
	// ID is the job number (field 1).
	ID int
	// Submit is the submission time in seconds (field 2).
	Submit float64
	// Wait is the queue wait time in seconds (field 3). The replay
	// uses it only for cancelled-while-queued records, as the delay
	// between submission and cancellation.
	Wait float64
	// Run is the actual runtime in seconds (field 4).
	Run float64
	// Procs is the number of processors (field 5, falling back to the
	// requested count of field 8 when unknown).
	Procs int
	// ReqTime is the user's requested walltime in seconds (field 9).
	ReqTime float64
	// Status is the completion status (field 11; see the SWF* codes).
	Status int
	// Partition is the partition number (field 16; -1 unknown).
	// Routing: partition p ≥ 1 maps to cluster partition (p−1) mod
	// NumPartitions; unknown or non-positive numbers go to the first
	// partition.
	Partition int
}

// ParseSWF reads an SWF trace into memory. Comment lines start with
// ';'. Every record line must carry exactly 18 finite numeric
// fields; anything else is rejected with the offending line number
// (and field, for a field that is not a finite number). For
// traces too large to materialize, use ParseSWFFunc.
func ParseSWF(r io.Reader) ([]SWFJob, error) {
	var jobs []SWFJob
	err := ParseSWFFunc(r, func(j SWFJob) error {
		jobs = append(jobs, j)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return jobs, nil
}

// ParseSWFFunc streams an SWF trace, calling fn once per record in
// file order without retaining anything: the ingest path of the
// million-job replays. A non-nil error from fn aborts the parse and
// is returned as-is.
func ParseSWFFunc(r io.Reader, fn func(SWFJob) error) error {
	p := newSWFScanner(r)
	for {
		j, ok, err := p.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(j); err != nil {
			return err
		}
	}
}

// swfScanner pulls records off an SWF reader one at a time; it is the
// one parser behind ParseSWF, ParseSWFFunc and SWFReaderSource.
type swfScanner struct {
	sc   *bufio.Scanner
	line int
}

func newSWFScanner(r io.Reader) *swfScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &swfScanner{sc: sc}
}

// next returns the next record of the trace; ok is false at the end
// of the input. A record line of canonical integers is read in place
// by scanSWFRecord; every other line — blanks, comments, decimals,
// exponents, Unicode spaces, long digit runs, wrong field counts —
// takes the general path below, which decides acceptance, values and
// error text alike.
func (p *swfScanner) next() (job SWFJob, ok bool, err error) {
	var vals [swfFields]float64
	for p.sc.Scan() {
		p.line++
		if !scanSWFRecord(p.sc.Bytes(), &vals) {
			text := strings.TrimSpace(p.sc.Text())
			if text == "" || strings.HasPrefix(text, ";") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) != swfFields {
				return SWFJob{}, false, fmt.Errorf("swf: line %d: %d fields, want %d", p.line, len(fields), swfFields)
			}
			for i, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return SWFJob{}, false, fmt.Errorf("swf: line %d field %d: %v", p.line, i+1, err)
				}
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return SWFJob{}, false, fmt.Errorf("swf: line %d field %d: non-finite value %q", p.line, i+1, f)
				}
				vals[i] = v
			}
		}
		if vals[1] < 0 {
			return SWFJob{}, false, fmt.Errorf("swf: line %d: negative submit time %v", p.line, vals[1])
		}
		procs := int(vals[4])
		if procs <= 0 {
			procs = int(vals[7]) // requested processors
		}
		return SWFJob{
			ID:        int(vals[0]),
			Submit:    vals[1],
			Wait:      vals[2],
			Run:       vals[3],
			Procs:     procs,
			ReqTime:   vals[8],
			Status:    int(vals[10]),
			Partition: int(vals[15]),
		}, true, nil
	}
	if err := p.sc.Err(); err != nil {
		return SWFJob{}, false, fmt.Errorf("swf: %v", err)
	}
	return SWFJob{}, false, nil
}

// swfFastDigits bounds a field scanSWFRecord reads itself: 15 digits
// stay below 2^53, so the integer converts to float64 exactly, as
// ParseFloat would.
const swfFastDigits = 15

// scanSWFRecord reads line as exactly 18 fields separated by spaces or
// tabs, each a canonical decimal integer: an optional '-', then "0" or
// up to 15 digits without a leading zero ("-0" keeps ParseFloat's
// negative zero by going to the general path). It fills vals and
// reports true only for such a line; otherwise vals is undefined and
// the caller parses the line the general way.
func scanSWFRecord(line []byte, vals *[swfFields]float64) bool {
	n, i := 0, 0
	for {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i == len(line) {
			return n == swfFields
		}
		if n == swfFields {
			return false
		}
		neg := line[i] == '-'
		if neg {
			i++
		}
		start := i
		var v int64
		for i < len(line) && line[i]-'0' <= 9 {
			v = v*10 + int64(line[i]-'0')
			i++
		}
		digits := i - start
		if digits == 0 || digits > swfFastDigits || (line[start] == '0' && (digits > 1 || neg)) {
			return false
		}
		if i < len(line) && line[i] != ' ' && line[i] != '\t' {
			return false
		}
		if neg {
			v = -v
		}
		vals[n] = float64(v)
		n++
	}
}

// swfRecordBytes is FormatSWF's per-record size estimate: a record of
// the synthetic generator renders in about 60 bytes.
const swfRecordBytes = 64

// FormatSWF renders records as SWF text (unused fields as -1), so
// synthetic traces round-trip through the parser. Each line is the
// one fmt's "%d %.0f %.0f %.0f %d -1 -1 %d %.0f -1 %d -1 -1 -1 -1 %d
// -1 -1\n" gives, appended without boxing a field.
func FormatSWF(jobs []SWFJob) string {
	const header = "; synthetic SWF trace\n"
	b := make([]byte, 0, len(header)+swfRecordBytes*len(jobs))
	b = append(b, header...)
	for _, j := range jobs {
		b = strconv.AppendInt(b, int64(j.ID), 10)
		b = append(b, ' ')
		b = appendSWFFloat(b, j.Submit)
		b = append(b, ' ')
		b = appendSWFFloat(b, j.Wait)
		b = append(b, ' ')
		b = appendSWFFloat(b, j.Run)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(j.Procs), 10)
		b = append(b, " -1 -1 "...)
		b = strconv.AppendInt(b, int64(j.Procs), 10)
		b = append(b, ' ')
		b = appendSWFFloat(b, j.ReqTime)
		b = append(b, " -1 "...)
		b = strconv.AppendInt(b, int64(j.Status), 10)
		b = append(b, " -1 -1 -1 -1 "...)
		b = strconv.AppendInt(b, int64(j.Partition), 10)
		b = append(b, " -1 -1\n"...)
	}
	return string(b)
}

// appendSWFFloat appends v as fmt's %.0f does. A non-zero integral
// value within ±1e15 converts to int64 exactly and prints the same
// digits through AppendInt; everything else — fractions (rounded half
// to even), ±0 ("-0" keeps its sign), large magnitudes, ±Inf, NaN —
// goes through AppendFloat, which is what %.0f calls.
func appendSWFFloat(b []byte, v float64) []byte {
	if v != 0 && v == math.Trunc(v) && math.Abs(v) <= 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'f', 0, 64)
}

// SWFOptions maps a trace onto the simulated cluster.
type SWFOptions struct {
	// Nodes is the cluster size (default 4) of MN3 nodes. Ignored
	// when Cluster is set.
	Nodes int
	// Cluster, when non-empty, replays onto a partitioned
	// heterogeneous cluster: the trace's partition numbers route jobs
	// to its partitions ((p−1) mod NumPartitions).
	Cluster hwmodel.ClusterSpec
	// MaxJobs truncates the trace (0 = all).
	MaxJobs int
}

// swfSpec is the calibrated synthetic application the replay runs:
// fully malleable compute (like Pils), one ~1 s chunk per requested
// CPU and iteration, so the iteration boundary is the DLB_PollDROM
// malleability point.
func swfSpec() apps.Spec {
	return apps.Spec{
		Name:           "swf",
		Class:          apps.Malleable,
		DefaultIters:   100,
		ChunkSeconds:   1.0,
		IPCBase:        1.0,
		IPCAlpha:       0,
		RefThreads:     16,
		MemFrac:        0.02,
		BWPerThreadGBs: 0.2,
		Spread:         1,
		CommSeconds:    0,
	}
}

// check rejects a mapping no trace can be replayed through: a node
// count hwmodel refuses or a negative MaxJobs (0 replays the whole
// trace).
func (o SWFOptions) check() error {
	if err := hwmodel.CheckNodes(o.Nodes); err != nil {
		return fmt.Errorf("swf: %w", err)
	}
	if o.MaxJobs < 0 {
		return fmt.Errorf("swf: MaxJobs %d is negative", o.MaxJobs)
	}
	return nil
}

// clusterSpec resolves the mapping target: the explicit partitioned
// layout when given, otherwise a homogeneous single-partition cluster
// of Nodes (default 4) MN3 nodes.
func (o SWFOptions) clusterSpec() hwmodel.ClusterSpec {
	if len(o.Cluster.Partitions) > 0 {
		return o.Cluster
	}
	nodes := o.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	return hwmodel.Homogeneous(slurm.DefaultPartition, hwmodel.MN3(), nodes)
}

// routePartition maps an SWF partition number onto a cluster
// partition index: p ≥ 1 goes to (p−1) mod n, unknown (-1) and
// non-positive numbers to the first partition.
func routePartition(p, n int) int {
	if n <= 1 || p <= 0 {
		return 0
	}
	return (p - 1) % n
}

// swfMapper converts trace records into submissions on a partitioned
// cluster, counting every record it must drop so the replay's
// coverage of the trace is honest (metrics.DropStats).
type swfMapper struct {
	cluster hwmodel.ClusterSpec
	spec    apps.Spec
	drops   metrics.DropStats
	// names holds the names of records nameLo .. nameLo+swfNameChunk−1,
	// the k-th at names[nameOff[k]:nameOff[k+1]]; buf is the scratch
	// they are rendered in (see name).
	names   string
	nameLo  int
	nameOff [swfNameChunk + 1]int32
	buf     []byte
}

// swfNameChunk is how many records' names the mapper renders into one
// string at a time.
const swfNameChunk = 512

func newSWFMapper(o SWFOptions) swfMapper {
	return swfMapper{cluster: o.clusterSpec(), spec: swfSpec()}
}

// drop counts an unmappable record under its status class.
func (m *swfMapper) drop(status int) {
	switch status {
	case SWFFailed:
		m.drops.Failed++
	case SWFCancelled:
		m.drops.Cancelled++
	default:
		m.drops.Unusable++
	}
}

// jobShape fits procs CPUs onto the partition: number of nodes and
// threads per rank. ok is false when the job is wider than the
// partition.
func jobShape(procs int, part hwmodel.Partition) (nodes, threads int, ok bool) {
	cores := part.Machine.CoresPerNode()
	nodes = (procs + cores - 1) / cores
	if nodes > part.Nodes {
		return 0, 0, false
	}
	threads = (procs + nodes - 1) / nodes
	if threads > cores {
		threads = cores
	}
	return nodes, threads, true
}

// name returns the n-th trace record's name, "j%05d": zero-padded to
// five digits, wider past 99999. The names of swfNameChunk records are
// rendered at once into one string and each is sliced out of it, so a
// replay allocates one name string per chunk, not one per job. An n
// outside the chunk — the next one, or a non-sequential idx — renders
// a new chunk from n.
func (m *swfMapper) name(n int) string {
	k := n - m.nameLo
	if m.names == "" || k < 0 || k >= swfNameChunk {
		m.renderNames(n)
		k = 0
	}
	return m.names[m.nameOff[k]:m.nameOff[k+1]]
}

// renderNames fills the chunk with the names of records n onward.
func (m *swfMapper) renderNames(n int) {
	b := m.buf[:0]
	for k := range swfNameChunk {
		b = append(b, 'j')
		for w := 10000; w > n+k && w > 1; w /= 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, int64(n+k), 10)
		m.nameOff[k+1] = int32(len(b))
	}
	m.buf, m.names, m.nameLo = b, string(b), n
}

// Map converts the idx-th trace record (0-based, counting dropped
// records) into a submission. The SWF fields the replay honors beyond
// the basic shape:
//
//   - partition (16) routes the job to a cluster partition;
//   - status (11) 5 with unknown runtime replays as a cancellation
//     Wait seconds after submission (the job occupies a queue slot,
//     then leaves it — or is killed if it managed to start);
//   - status 0 (failed) or 5 with a runtime replays as a job that
//     promised its requested walltime but dies Run seconds into
//     execution, freeing its CPUs mid-runtime.
//
// ok is false when the record cannot run on the cluster (unknown
// runtime/processor count on a non-cancelled record, or wider than
// its partition); such drops are classified in the mapper's stats.
func (m *swfMapper) Map(j SWFJob, idx int) (Submission, bool) {
	pidx := routePartition(j.Partition, len(m.cluster.Partitions))
	part := m.cluster.Partitions[pidx]
	if j.Status == SWFCancelled && j.Run <= 0 {
		// Cancelled before it ever ran: replay the queue occupancy and
		// the scancel. Should the simulated cluster start it before the
		// cancellation arrives, the cancel kills it mid-run instead.
		procs := j.Procs
		if procs <= 0 {
			procs = 1
		}
		nodes, threads, ok := jobShape(procs, part)
		if !ok {
			m.drop(j.Status)
			return Submission{}, false
		}
		wait := j.Wait
		if wait < 0 {
			wait = 0
		}
		walltime := j.ReqTime
		if walltime <= 0 {
			walltime = 0
		}
		horizon := walltime
		if horizon <= 0 {
			horizon = sched.DefaultWalltime
		}
		return Submission{
			At:       j.Submit,
			Cancel:   true,
			CancelAt: j.Submit + wait,
			Job: slurm.Job{
				Name:      m.name(idx + 1),
				Spec:      m.spec,
				Cfg:       apps.Config{Ranks: nodes, Threads: threads},
				Iters:     itersFor(horizon, m.spec),
				Nodes:     nodes,
				Walltime:  walltime,
				Malleable: true,
				Partition: part.Name,
			},
		}, true
	}
	if j.Run <= 0 || j.Procs <= 0 {
		m.drop(j.Status)
		return Submission{}, false
	}
	nodes, threads, ok := jobShape(j.Procs, part)
	if !ok {
		m.drop(j.Status)
		return Submission{}, false
	}
	walltime := j.ReqTime
	if walltime <= 0 {
		walltime = 0
	}
	job := slurm.Job{
		Name:      m.name(idx + 1),
		Spec:      m.spec,
		Cfg:       apps.Config{Ranks: nodes, Threads: threads},
		Iters:     itersFor(j.Run, m.spec),
		Nodes:     nodes,
		Walltime:  walltime,
		Malleable: true,
		Partition: part.Name,
	}
	if j.Status == SWFFailed || j.Status == SWFCancelled {
		// The scheduler believed the job would run toward its walltime;
		// in reality it died Run seconds in. Size the work to the
		// promise and arm the interrupt at the recorded runtime, so the
		// CPUs come back early relative to every reservation that was
		// planned around the job.
		horizon := j.ReqTime
		if horizon < j.Run {
			horizon = j.Run
		}
		job.Iters = itersFor(horizon, m.spec)
		job.FailAfter = j.Run
		if j.Status == SWFCancelled {
			job.FailOutcome = metrics.OutcomeCancelled
		} else {
			job.FailOutcome = metrics.OutcomeFailed
		}
	}
	return Submission{At: j.Submit, Job: job}, true
}

// itersFor sizes the synthetic application to ~seconds of full-width
// compute.
func itersFor(seconds float64, spec apps.Spec) int {
	iters := int(seconds/spec.ChunkSeconds + 0.5)
	if iters < 1 {
		iters = 1
	}
	return iters
}

// SWFScenario converts trace records into a replayable scenario. Jobs
// that cannot run on the configured cluster (unknown runtime or
// processor count, wider than their partition) are dropped; the count
// is returned and the per-status classification recorded on
// Scenario.Dropped (and from there on the run's metrics.Workload).
func SWFScenario(jobs []SWFJob, o SWFOptions) (Scenario, int, error) {
	if err := o.check(); err != nil {
		return Scenario{}, 0, err
	}
	m := newSWFMapper(o)
	n := len(jobs)
	if o.MaxJobs > 0 && o.MaxJobs < n {
		n = o.MaxJobs
	}
	sc := Scenario{
		Name:    fmt.Sprintf("swf/%d-jobs", len(jobs)),
		Cluster: m.cluster,
		Subs:    make([]Submission, 0, n),
	}
	for i, j := range jobs {
		if o.MaxJobs > 0 && len(sc.Subs) >= o.MaxJobs {
			break
		}
		sub, ok := m.Map(j, i)
		if !ok {
			continue
		}
		sc.Subs = append(sc.Subs, sub)
	}
	sc.Dropped = m.drops
	if len(sc.Subs) == 0 {
		return Scenario{}, m.drops.Total(), fmt.Errorf("swf: no usable jobs in trace (%d skipped)", m.drops.Total())
	}
	return sc, m.drops.Total(), nil
}

// SyntheticSWF seeds the scale-oriented workload generator.
type SyntheticSWF struct {
	Seed int64
	// Jobs is the trace length (default 1000).
	Jobs int
	// Nodes is the cluster size (default 4). Ignored when Cluster is
	// set.
	Nodes int
	// MeanInterarrival is the exponential inter-arrival mean in
	// seconds (default 60, ~80% offered load on the default shape).
	MeanInterarrival float64
	// Cluster, when non-empty, generates a heterogeneous trace: each
	// job draws a partition uniformly and sizes itself against that
	// partition's machine. hwmodel.HeteroMN3() is the bundled preset.
	Cluster hwmodel.ClusterSpec
	// CancelRate and FailRate are per-job probabilities of generating
	// a cancelled (while queued) or failed (mid-run) record. Zero
	// rates draw nothing from the random stream, so traces generated
	// before these knobs existed are bit-identical.
	CancelRate float64
	FailRate   float64
}

// check rejects parameters the generator cannot use: an inter-arrival
// mean that is negative or not finite (NaN or ±Inf would put a
// submission at a non-finite time; 0 selects the default), a negative
// trace length, a fault probability outside [0, 1] (NaN fails both
// bounds, so it is refused too) and a node count hwmodel refuses.
func (p SyntheticSWF) check() error {
	if err := checkStream(p.Jobs, p.MeanInterarrival, p.Nodes); err != nil {
		return fmt.Errorf("swf: %w", err)
	}
	for _, r := range []struct {
		name string
		x    float64
	}{{"CancelRate", p.CancelRate}, {"FailRate", p.FailRate}} {
		if !(r.x >= 0 && r.x <= 1) {
			return fmt.Errorf("swf: %s %v is outside [0, 1]", r.name, r.x)
		}
	}
	return nil
}

// checkStream refuses the parameters of a generated job stream — the
// trace generator's and the DJSB stream's — that no stream can be drawn
// from: a non-finite or negative mean inter-arrival time, a negative
// length, or a node count hwmodel.CheckNodes refuses (0 selects each
// stream's default).
func checkStream(jobs int, ia float64, nodes int) error {
	if !(ia >= 0) || math.IsInf(ia, 1) {
		return fmt.Errorf("MeanInterarrival %v is not a finite value >= 0", ia)
	}
	if jobs < 0 {
		return fmt.Errorf("Jobs %d is negative", jobs)
	}
	return hwmodel.CheckNodes(nodes)
}

func (p SyntheticSWF) withDefaults() SyntheticSWF {
	if p.Jobs <= 0 {
		p.Jobs = 1000
	}
	if p.Nodes <= 0 {
		p.Nodes = 4
	}
	if p.MeanInterarrival <= 0 {
		p.MeanInterarrival = 60
	}
	return p
}

// clusterSpec resolves the generator's target cluster. Call on a
// withDefaults() value.
func (p SyntheticSWF) clusterSpec() hwmodel.ClusterSpec {
	if len(p.Cluster.Partitions) > 0 {
		return p.Cluster
	}
	return hwmodel.Homogeneous(slurm.DefaultPartition, hwmodel.MN3(), p.Nodes)
}

// genJob draws the i-th trace record from the generator's random
// stream, advancing the arrival clock. Generate and the streaming
// Source share it, so both produce bit-identical traces. Optional
// draws (partition choice, fault status) happen only when the
// corresponding knob is active, keeping the default stream — and
// every committed golden replay — unchanged.
func (p SyntheticSWF) genJob(r *rand.Rand, i int, at *float64, cs hwmodel.ClusterSpec) SWFJob {
	*at += float64(r.ExpFloat64() * p.MeanInterarrival)
	pidx := 0
	if len(cs.Partitions) > 1 {
		pidx = r.Intn(len(cs.Partitions))
	}
	part := cs.Partitions[pidx]
	cores := part.Machine.CoresPerNode()
	var procs int
	switch x := r.Float64(); {
	case x < 0.55: // narrow: a few CPUs on one node
		procs = 1 + r.Intn(cores/2)
	case x < 0.85 || part.Nodes < 2: // node-wide
		procs = cores
	default: // wide: 2..Nodes full nodes
		procs = cores * (2 + r.Intn(part.Nodes-1))
	}
	// Log-normal-ish runtime clamped to [20 s, 600 s].
	run := math.Exp(4.5 + float64(0.9*r.NormFloat64()))
	if run < 20 {
		run = 20
	}
	if run > 600 {
		run = 600
	}
	j := SWFJob{
		ID:        i + 1,
		Submit:    math.Round(*at),
		Wait:      -1,
		Run:       math.Round(run),
		Procs:     procs,
		ReqTime:   math.Round(run * (1 + float64(2*float64(r.Float64())))),
		Status:    SWFCompleted,
		Partition: -1,
	}
	if len(cs.Partitions) > 1 {
		j.Partition = pidx + 1
	}
	if p.CancelRate > 0 || p.FailRate > 0 {
		switch y := r.Float64(); {
		case y < p.FailRate:
			// Dies mid-run: the drawn runtime is the failure point.
			j.Status = SWFFailed
		case y < p.FailRate+p.CancelRate:
			// Cancelled while queued: the drawn runtime becomes the
			// wait until the user gave up; the job never ran.
			j.Status = SWFCancelled
			j.Wait = j.Run
			j.Run = -1
		}
	}
	return j
}

// Generate produces a reproducible SWF trace: Poisson arrivals, a mix
// of narrow (sub-node), node-wide and multi-node jobs, log-normal-ish
// runtimes, the typical user walltime over-estimation (1–3×), and —
// when the fault knobs are set — seeded cancelled/failed records.
func (p SyntheticSWF) Generate() []SWFJob {
	p = p.withDefaults()
	r := rand.New(rand.NewSource(p.Seed))
	cs := p.clusterSpec()
	jobs := make([]SWFJob, 0, p.Jobs)
	at := 0.0
	for i := 0; i < p.Jobs; i++ {
		jobs = append(jobs, p.genJob(r, i, &at, cs))
	}
	return jobs
}

// SyntheticSWFScenario generates and maps a synthetic trace in one
// step.
func SyntheticSWFScenario(p SyntheticSWF) (Scenario, error) {
	if err := p.check(); err != nil {
		return Scenario{}, err
	}
	p = p.withDefaults()
	sc, skipped, err := SWFScenario(p.Generate(), SWFOptions{Nodes: p.Nodes, Cluster: p.Cluster})
	if err != nil {
		return Scenario{}, err
	}
	if skipped > 0 {
		return Scenario{}, fmt.Errorf("swf: synthetic generator produced %d unusable jobs", skipped)
	}
	sc.Name = fmt.Sprintf("swf/synthetic-seed%d-jobs%d", p.Seed, p.Jobs)
	if len(p.Cluster.Partitions) > 0 {
		sc.Name += "-cluster[" + p.Cluster.String() + "]"
	}
	return sc, nil
}

// RunSchedSet executes a scenario under a per-partition policy set
// (the `-sched batch=easy,fat=malleable-shrink` grammar) from
// internal/sched: every partition gets a fresh instance of the policy
// the set assigns it. Placement is shared-node with disjoint masks;
// every malleability action a policy emits goes through the real DROM
// SetProcessMask/PreInit path.
func RunSchedSet(s Scenario, ps sched.PolicySet) Result {
	return replay(s, nil, slurm.PolicyDROM, useSchedSet(ps))
}
