package workload

// Spec is the one description of a trace-driven scheduling run: the
// trace source, the cluster, the run knobs and the two axes (policies
// × seeds) a sweep fans out. slurmsim's trace flags, every sweep cell
// and schedd's boot flags are parsed, checked and opened through it.

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/hwmodel"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// Spec describes a trace-driven run, or a grid of them: every
// (policy, seed) pair is one cell. Its text form is the key=value
// grammar of ParseSpec; String renders it back. Each key has one
// setter (Set), and Validate runs the checks the library types that
// own the fields already make, so every front end gives a value the
// same verdict.
type Spec struct {
	// Policies are sched policy names or per-partition policy-set
	// specs in the sched.ParsePolicySet grammar, one cell each
	// (sched.Names() when empty).
	Policies []string
	// Seeds select the generator's traces and seed each cell's node
	// fault stream (default {1}). A trace file is one trace: its cells
	// take the first seed only.
	Seeds []int64
	// Jobs, MeanInterarrival, CancelRate and FailRate parameterize the
	// generator (SyntheticSWF; 0 selects its defaults).
	Jobs             int
	MeanInterarrival float64
	CancelRate       float64
	FailRate         float64
	// SWFPath replays a Standard Workload Format file instead of the
	// generator; MaxJobs truncates it (0 = all).
	SWFPath string
	MaxJobs int
	// Nodes is the cluster size (default 4). Ignored when Cluster is
	// set.
	Nodes   int
	Cluster hwmodel.ClusterSpec
	// Spill, SpillAfter and SpillDepth are the spillover knobs, and
	// NodeFaults, MTBF, MTTR and MaxRequeues the node fault knobs, of
	// Scenario.
	Spill       bool
	SpillAfter  float64
	SpillDepth  int
	NodeFaults  string
	MTBF        float64
	MTTR        float64
	MaxRequeues int
	// Stream replays each cell through the bounded-memory streaming
	// path (aggregate statistics only; no per-job records, no P95s).
	Stream bool
	// DebugInvariants enables the controller's per-cycle accounting
	// cross-checks (slow).
	DebugInvariants bool
	// KeepJobs makes a sweep retain per-job records in every result
	// (incompatible with Stream). Not a key.
	KeepJobs bool
	// Probe receives one obs.KindCell event per finished sweep cell.
	// Not a key; Open never reads it (a run's probe is Open's
	// argument).
	Probe obs.Probe `json:"-"`
}

// specKey is one row of the key table: the key, its aliases, the flag
// that sets it in each front end ("" = none), and its parser and
// canonical rendering ("" = the zero value, left out of String; nil
// for the two keys of the policy axis, which String renders itself). A
// key fails to parse a value String could not render back.
type specKey struct {
	name    string
	aliases []string
	flags   [2]string // indexed by FlagFront
	isBool  bool
	usage   string
	set     func(s *Spec, v string) error
	show    func(s *Spec) string
}

// FlagFront names a binary whose flags set spec keys: its column of
// the key table.
type FlagFront int

const (
	// SlurmsimFlags are slurmsim's trace-mode flags.
	SlurmsimFlags FlagFront = iota
	// ScheddFlags are schedd's boot flags.
	ScheddFlags
)

// specKeys is the key table, in String's order.
var specKeys = []specKey{
	{name: "policies", aliases: []string{"policy"}, flags: [2]string{"sched", "sched"},
		usage: "comma list of scheduling policies, one cell each: fcfs, easy, malleable-shrink, " +
			"malleable-expand (alias malleable), or all (spec default: all); a flag value with '=' pairs is " +
			"ONE per-partition policy set instead, e.g. 'batch=easy,fat=malleable-shrink' (see the sched key)",
		set: func(s *Spec, v string) error {
			if v == "all" {
				s.Policies = append(s.Policies, sched.Names()...)
				return nil
			}
			ps := strings.Split(v, ",")
			for i := range ps {
				ps[i] = strings.TrimSpace(ps[i])
				if err := plainValue(ps[i]); err != nil {
					return err
				}
			}
			s.Policies = append(s.Policies, ps...)
			return nil
		},
	},
	{name: "sched",
		usage: "one per-partition policy set in the sched.ParsePolicySet grammar, e.g. " +
			"batch=easy,fat=malleable-shrink; repeatable, each occurrence one cell",
		set: func(s *Spec, v string) error {
			err := plainValue(v)
			if err == nil {
				s.Policies = append(s.Policies, v)
			}
			return err
		},
	},
	{name: "seeds", aliases: []string{"seed"}, flags: [2]string{"seed", "seed"},
		usage: "trace seeds, a comma list with lo-hi ranges, e.g. 1,3,5-8 (spec default 1); " +
			"each also seeds its cells' node fault stream",
		set: func(s *Spec, v string) error {
			seeds, err := parseSeeds(v)
			if err == nil {
				s.Seeds = seeds
			}
			return err
		},
		show: func(s *Spec) string { return formatSeeds(s.Seeds) },
	},
	textKey("swf", "swf", "SWF trace file to replay instead of the seeded generator",
		func(s *Spec) *string { return &s.SWFPath }, func(v string) string { return v }),
	intKey("max", "", "", "truncate the swf trace to this many jobs (0 = all; slurmsim's -jobs on an -swf file)",
		func(s *Spec) *int { return &s.MaxJobs }),
	intKey("jobs", "jobs", "jobs", "generator: trace length (spec default 1000; schedd: 0 boots an empty cluster)",
		func(s *Spec) *int { return &s.Jobs }),
	floatKey("ia", "interarrival", "ia", "generator: mean inter-arrival time in seconds (spec default 60)",
		func(s *Spec) *float64 { return &s.MeanInterarrival }, "interarrival"),
	floatKey("cancel", "cancel", "", "generator: per-job probability of a cancelled-while-queued record (0..1)",
		func(s *Spec) *float64 { return &s.CancelRate }),
	floatKey("fail", "fail", "", "generator: per-job probability of a failed-mid-run record (0..1)",
		func(s *Spec) *float64 { return &s.FailRate }),
	intKey("nodes", "nodes", "nodes", "cluster size in MN3 nodes, one partition (spec default 4)",
		func(s *Spec) *int { return &s.Nodes }),
	{name: "cluster", flags: [2]string{"cluster", "cluster"},
		usage: "partitioned heterogeneous cluster in the hwmodel.ParseCluster grammar, e.g. " +
			"'batch:4xmn3,fat:2xfat' or the 'hetero' preset (overrides nodes)",
		set: func(s *Spec, v string) error {
			cs, err := hwmodel.ParseCluster(v)
			if err == nil {
				err = plainValue(cs.String())
			}
			if err == nil {
				s.Cluster = cs
			}
			return err
		},
		show: func(s *Spec) string { return s.Cluster.String() },
	},
	boolKey("spill", "spill", "cross-partition spillover pass: re-route a queued job its home partition "+
		"cannot host to another partition that fits it, guarded by the host's EASY head reservation",
		func(s *Spec) *bool { return &s.Spill }),
	floatKey("spillafter", "spill-after", "", "spillover: minimum queue wait in seconds before a job may spill",
		func(s *Spec) *float64 { return &s.SpillAfter }),
	intKey("spilldepth", "spill-depth", "", "spillover: minimum home-partition backlog before jobs may spill",
		func(s *Spec) *int { return &s.SpillDepth }),
	// The script grammar reads ';' as '+', and ';' separates fields.
	textKey("nodefaults", "node-faults", "deterministic node outage script, e.g. "+
		"'node0:down@100..400+node5:drain@200..300' (entries joined with '+' or ';', kept as '+'; "+
		"down kills and requeues residents, drain only blocks new launches)",
		func(s *Spec) *string { return &s.NodeFaults }, func(v string) string { return strings.ReplaceAll(v, ";", "+") }),
	floatKey("mtbf", "mtbf", "", "mean time between seeded random node failures in VIRTUAL seconds "+
		"(0 = off; the fault stream is seeded from the cell's seed)",
		func(s *Spec) *float64 { return &s.MTBF }),
	floatKey("mttr", "mttr", "", "mean repair time of seeded node failures in virtual seconds (0 = 600)",
		func(s *Spec) *float64 { return &s.MTTR }),
	intKey("requeue", "requeue", "", "per-job requeue cap after node failures "+
		"(0 = 3, negative = no requeues: the first failure is terminal)",
		func(s *Spec) *int { return &s.MaxRequeues }),
	boolKey("stream", "stream", "stream the trace instead of materializing it "+
		"(bounded memory, aggregate statistics only; for million-job replays)",
		func(s *Spec) *bool { return &s.Stream }),
	boolKey("check", "check", "cross-check the controller's incremental free-CPU accounting "+
		"against a full shared-memory re-scan every cycle (slow)",
		func(s *Spec) *bool { return &s.DebugInvariants }),
}

// scalarKey is a key whose value is one field, parsed by parse and
// rendered by format; the field's zero value is left out of String.
func scalarKey[T comparable](name, slurmsim, schedd, usage string, f func(*Spec) *T,
	parse func(string) (T, error), format func(T) string, aliases ...string) specKey {
	var zero T
	_, isBool := any(zero).(bool)
	return specKey{name: name, aliases: aliases, flags: [2]string{slurmsim, schedd}, isBool: isBool, usage: usage,
		set: func(s *Spec, v string) error {
			x, err := parse(v)
			if err == nil {
				*f(s) = x
			}
			return err
		},
		show: func(s *Spec) string {
			if x := *f(s); x != zero {
				return format(x)
			}
			return ""
		},
	}
}

func intKey(name, slurmsim, schedd, usage string, f func(*Spec) *int) specKey {
	return scalarKey(name, slurmsim, schedd, usage, f, strconv.Atoi, strconv.Itoa)
}

func floatKey(name, slurmsim, schedd, usage string, f func(*Spec) *float64, aliases ...string) specKey {
	parse := func(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
	format := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return scalarKey(name, slurmsim, schedd, usage, f, parse, format, aliases...)
}

func boolKey(name, slurmsim, usage string, f func(*Spec) *bool) specKey {
	return scalarKey(name, slurmsim, "", usage, f, strconv.ParseBool, func(bool) string { return "1" })
}

// textKey is a key whose value is stored as norm makes it, so it must
// not hold a field separator.
func textKey(name, slurmsim, usage string, f func(*Spec) *string, norm func(string) string) specKey {
	parse := func(v string) (string, error) { return norm(v), plainValue(norm(v)) }
	return scalarKey(name, slurmsim, "", usage, f, parse, norm)
}

// plainValue refuses a value the grammar could not read back: one
// holding a field separator.
func plainValue(v string) error {
	if strings.ContainsAny(v, "; \t") {
		return fmt.Errorf("value %q holds a field separator (';', space or tab)", v)
	}
	return nil
}

// Set parses value into the field key names. Set checks syntax only;
// Validate checks the result.
func (s *Spec) Set(key, value string) error {
	for _, k := range specKeys {
		if k.name != key && !slices.Contains(k.aliases, key) {
			continue
		}
		if err := k.set(s, value); err != nil {
			return fmt.Errorf("workload: %s=%q: %w", key, value, err)
		}
		return nil
	}
	return fmt.Errorf("workload: unknown spec key %q", key)
}

// ParseSpec parses key=value fields separated by ';' or whitespace,
// e.g.
//
//	policies=fcfs,easy;seeds=1-4;jobs=2000;nodes=4;ia=60
//
// Each key is one field of Spec (see the README's table of keys);
// a repeated key overrides, except policies and sched, which append
// cells. It checks syntax only; Validate checks the result.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	for _, f := range strings.FieldsFunc(text, func(r rune) bool {
		return r == ';' || r == ' ' || r == '\t'
	}) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Spec{}, fmt.Errorf("workload: malformed spec field %q (want key=value)", f)
		}
		if err := s.Set(k, v); err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}

// String renders the spec in ParseSpec's grammar, canonically: keys in
// table order, zero values left out, plain policy names in policies=
// lists and every other cell (a policy set, or "all" itself) in its own
// sched= field, in cell order.
func (s Spec) String() string {
	plain := func(p string) bool { return !strings.ContainsAny(p, "=,") && p != "all" }
	var fields []string
	for i, p := range s.Policies {
		switch {
		case !plain(p):
			fields = append(fields, "sched="+p)
		case i > 0 && plain(s.Policies[i-1]):
			fields[len(fields)-1] += "," + p
		default:
			fields = append(fields, "policies="+p)
		}
	}
	for _, k := range specKeys {
		if k.show == nil {
			continue // the policy cells, rendered above
		}
		if v := k.show(&s); v != "" {
			fields = append(fields, k.name+"="+v)
		}
	}
	return strings.Join(fields, ";")
}

// maxSeeds bounds a seed list, so a short spec cannot expand into an
// unbounded grid.
const maxSeeds = 10000

// parseSeeds accepts comma lists with lo-hi ranges: "1,3,5-8". A seed
// may be negative ("-5", "-5--3").
func parseSeeds(v string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(v, ",") {
		if s, err := strconv.ParseInt(part, 10, 64); err == nil {
			seeds = append(seeds, s)
		} else {
			i := strings.IndexByte(part[min(1, len(part)):], '-') + 1
			if i == 0 {
				return nil, fmt.Errorf("bad seed %q", part)
			}
			a, err1 := strconv.ParseInt(part[:i], 10, 64)
			b, err2 := strconv.ParseInt(part[i+1:], 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			// b-a overflows to a negative count on the widest ranges.
			if d := b - a; d < 0 || d >= maxSeeds-int64(len(seeds)) {
				return nil, fmt.Errorf("seed range %q too large", part)
			}
			for s := a; s <= b; s++ {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) > maxSeeds {
			return nil, fmt.Errorf("seed list expands past %d seeds", maxSeeds)
		}
	}
	return seeds, nil
}

// formatSeeds renders a seed list for parseSeeds.
func formatSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}

// Validate checks the spec with the checks the library types make for
// themselves: each policy parses (sched.ParsePolicySet), the generator
// accepts its parameters, the trace mapping its options, and a session
// its run knobs. A spec that validates opens on every cell, but for
// what only opening finds (a missing trace file, a node-fault script
// naming a node the cluster lacks).
func (s Spec) Validate() error {
	for _, p := range s.Policies {
		if _, err := sched.ParsePolicySet(p); err != nil {
			return fmt.Errorf("workload: policy %q: %w", p, err)
		}
	}
	if err := s.synthetic(0).check(); err != nil {
		return err
	}
	if err := s.swfOptions().check(); err != nil {
		return err
	}
	sc := Scenario{Nodes: s.Nodes}
	s.knobsOnto(&sc, nil, 0)
	return sc.check()
}

// policies returns the policy axis, defaulted.
func (s Spec) policies() []string {
	if len(s.Policies) == 0 {
		return sched.Names()
	}
	return s.Policies
}

// seeds returns the seed axis, defaulted; a trace file is one trace.
func (s Spec) seeds() []int64 {
	switch {
	case len(s.Seeds) == 0:
		return []int64{1}
	case s.SWFPath != "":
		return s.Seeds[:1]
	}
	return s.Seeds
}

// Cells enumerates the spec's cells in grid order — seeds outer,
// policies inner, one row per trace and one column per policy, like
// the paper's tables — each a copy of s with one policy and one seed.
func (s Spec) Cells() []Spec {
	pols, seeds := s.policies(), s.seeds()
	cells := make([]Spec, 0, len(seeds)*len(pols))
	for i := range seeds {
		for j := range pols {
			c := s
			c.Policies, c.Seeds = pols[j:j+1:j+1], seeds[i:i+1:i+1]
			cells = append(cells, c)
		}
	}
	return cells
}

// synthetic parameterizes the generator for one seed.
func (s Spec) synthetic(seed int64) SyntheticSWF {
	return SyntheticSWF{
		Seed: seed, Jobs: s.Jobs, Nodes: s.Nodes, MeanInterarrival: s.MeanInterarrival,
		Cluster: s.Cluster, CancelRate: s.CancelRate, FailRate: s.FailRate,
	}
}

// swfOptions maps a trace file onto the spec's cluster.
func (s Spec) swfOptions() SWFOptions {
	return SWFOptions{Nodes: s.Nodes, Cluster: s.Cluster, MaxJobs: s.MaxJobs}
}

// knobsOnto copies the run knobs onto a scenario; the fault stream is
// seeded from the cell's seed, so each cell is reproducible alone.
func (s Spec) knobsOnto(sc *Scenario, probe obs.Probe, seed int64) {
	sc.Spill, sc.SpillAfter, sc.SpillDepth = s.Spill, s.SpillAfter, s.SpillDepth
	sc.NodeFaults, sc.MTBF, sc.MTTR = s.NodeFaults, s.MTBF, s.MTTR
	sc.MaxRequeues, sc.FaultSeed = s.MaxRequeues, seed
	sc.DebugInvariants = s.DebugInvariants
	sc.Probe = probe
}

// Scenario materializes the trace of the spec's first seed — from the
// file, or from the generator — without the run knobs: the scenario
// Open replays, which cells on one seed may share read-only.
func (s Spec) Scenario() (Scenario, error) {
	if s.SWFPath == "" {
		return SyntheticSWFScenario(s.synthetic(s.seeds()[0]))
	}
	f, err := os.Open(s.SWFPath)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	jobs, err := ParseSWF(f)
	if err != nil {
		return Scenario{}, err
	}
	sc, _, err := SWFScenario(jobs, s.swfOptions())
	return sc, err
}

// Open opens the spec's first cell — its first policy on its first
// seed — as a session under probe (nil for none). A materialized cell
// replays sc, its trace from Scenario (a scenario without Subs is an
// empty trace on the spec's cluster); a streamed one (Stream) reads a
// fresh source, from the file or the generator, instead of sc.Subs.
// The spill, fault and check knobs are copied from the spec.
func (s Spec) Open(sc Scenario, probe obs.Probe) (*Session, error) {
	ps, err := sched.ParsePolicySet(s.policies()[0])
	if err != nil {
		return nil, err
	}
	seed := s.seeds()[0]
	var src SubmissionSource
	switch {
	case !s.Stream:
		src = newSliceSource(sc.Subs)
	case s.SWFPath == "":
		src = s.synthetic(seed).Source()
	default:
		f, err := os.Open(s.SWFPath)
		if err != nil {
			return nil, err
		}
		src = NewSWFReaderSource(f, s.swfOptions())
	}
	if len(sc.Cluster.Partitions) == 0 {
		sc.Cluster = s.swfOptions().clusterSpec()
	}
	s.knobsOnto(&sc, probe, seed)
	return open(new(kit), sc, src, slurm.PolicyDROM, useSchedSet(ps))
}

// flagText is a spec flag's value: the text the command line gave it,
// which FlagSpec hands to the key's setter.
type flagText struct {
	text   string
	isBool bool
}

func (f *flagText) String() string {
	if f == nil {
		return ""
	}
	return f.text
}

func (f *flagText) Set(v string) error { f.text = v; return nil }

// IsBoolFlag lets a boolean key's flag stand alone (-spill for
// -spill=true). The flag package asks for it through an unexported
// interface; this literal one states the contract.
func (f *flagText) IsBoolFlag() bool { return f.isBool }

var _ interface {
	flag.Value
	IsBoolFlag() bool
} = (*flagText)(nil)

// RegisterFlags registers front's spec flags on fs, one per key its
// column of the key table names, each starting at defaults[flag] (""
// when absent: the spec's own default applies).
func RegisterFlags(fs *flag.FlagSet, front FlagFront, defaults map[string]string) {
	for _, k := range specKeys {
		if name := k.flags[front]; name != "" {
			fs.Var(&flagText{text: defaults[name], isBool: k.isBool}, name, k.usage)
		}
	}
}

// FlagSpec builds the spec front's flags on fs describe: every flag
// that holds a value goes through Set under its key. Two flags read
// their value first: a -sched value with '=' pairs is one sched= cell
// (a plain comma list is policies=), and -jobs on an -swf file is max=.
// It checks syntax only; Validate checks the result.
func FlagSpec(fs *flag.FlagSet, front FlagFront) (Spec, error) {
	var s Spec
	var err error
	swf := fs.Lookup("swf")
	onFile := swf != nil && swf.Value.String() != ""
	for _, k := range specKeys {
		f := fs.Lookup(k.flags[front])
		if f == nil || err != nil {
			continue
		}
		v, key := f.Value.String(), k.name
		switch {
		case v == "":
			continue
		case key == "policies" && strings.Contains(v, "="):
			key = "sched"
		case key == "jobs" && onFile:
			key = "max"
		}
		err = s.Set(key, v)
	}
	return s, err
}
