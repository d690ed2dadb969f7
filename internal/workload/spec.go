package workload

// Spec is the one description of a run: its source (a trace, or a
// scenario of the paper's evaluation), the cluster, the run knobs and
// the two axes (policies × seeds) a sweep fans out. slurmsim's flags,
// every sweep cell, every run of the paper's evaluation and schedd's
// boot flags are parsed, checked and opened through it.

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// Spec describes a run, or a grid of them: every (policy, seed) pair
// is one cell. Its text form is the key=value grammar of ParseSpec;
// String renders it back. Each key has one setter (Set), and Validate
// runs the checks the library types that own the fields already make,
// so every front end gives a value the same verdict.
type Spec struct {
	// Policies are sched policy names or per-partition policy-set
	// specs in the sched.ParsePolicySet grammar, one cell each
	// (sched.Names() when empty); a paper scenario's are the builtin
	// controller policies serial, drom, oversubscribe and preempt
	// (serial and drom when empty).
	Policies []string
	// Seeds select the generator's traces and the DJSB stream, and seed
	// each cell's node fault and jitter streams (default {1}). A trace
	// file is one trace: its cells take the first seed only.
	Seeds []int64
	// Paper replays a scenario of the paper's evaluation instead of a
	// trace: uc1 (in-situ analytics, §6.1), uc2 (high-priority job,
	// §6.2) or djsb (the DJSB-style stream, see djsbScenario). djsb
	// reads Jobs, MeanInterarrival and Nodes, 20, 150 s and 2 when 0.
	Paper string
	// Sim and Ana are UC1's simulator and analytics, each an app and
	// its Table 1 configuration counted from 1: nest1 and pils2 when
	// empty.
	Sim, Ana string
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
	// Stream replays each cell of a trace through the bounded-memory
	// streaming path (aggregate statistics only; no per-job records, no
	// P95s); a paper scenario has no streamed form.
	Stream bool
	// DebugInvariants enables the controller's per-cycle accounting
	// cross-checks (slow).
	DebugInvariants bool
	// Trace records per-thread traces (trace.Tracer), and Jitter
	// scales each iteration duration by a factor in [1-Jitter,
	// 1+Jitter) drawn from the cell's seed (Scenario.JitterFrac).
	Trace  bool
	Jitter float64
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
			"ONE per-partition policy set instead, e.g. 'batch=easy,fat=malleable-shrink' (see the sched key); " +
			"a scenario takes the builtin controller policies serial, drom, oversubscribe and preempt instead " +
			"(spec default: serial,drom)",
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
	textKey("scenario", "", "a scenario of the paper's evaluation instead of a trace: uc1 (in-situ analytics), "+
		"uc2 (high-priority job) or djsb (a DJSB-style stream of jobs, ia and nodes: 20, 150 and 2 by default)",
		func(s *Spec) *string { return &s.Paper }, verbatim),
	textKey("sim", "", "uc1's simulator and its Table 1 configuration: nest1, nest2, coreneuron1 or coreneuron2 "+
		"(spec default nest1)", func(s *Spec) *string { return &s.Sim }, verbatim),
	textKey("ana", "", "uc1's analytics and its Table 1 configuration: pils1, pils2, pils3 or stream1 "+
		"(spec default pils2)", func(s *Spec) *string { return &s.Ana }, verbatim),
	textKey("swf", "swf", "SWF trace file to replay instead of the seeded generator",
		func(s *Spec) *string { return &s.SWFPath }, verbatim),
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
	boolKey("trace", "", "record per-thread traces (the timelines of slurmsim -trace and the paper's figures)",
		func(s *Spec) *bool { return &s.Trace }),
	floatKey("jitter", "", "", "seeded run-to-run variability: each iteration duration scaled by a factor "+
		"in [1-jitter, 1+jitter), drawn from the cell's seed (0 = deterministic; below 1)",
		func(s *Spec) *float64 { return &s.Jitter }),
}

// verbatim is a text key's identity normalization.
func verbatim(v string) string { return v }

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

// sourceKeys are the keys that say what a cell replays and on what
// cluster: the trace's and the generator's, the cluster's, the
// spillover pass's (a pass of the sched policies), and UC1's. A paper
// scenario reads only those scenarioKeys names; it reads every other
// key (the policy and seed axes, trace, jitter and the fault and check
// knobs) as a trace does.
var sourceKeys = []string{"sim", "ana", "swf", "max", "jobs", "ia", "cancel", "fail", "nodes", "cluster",
	"spill", "spillafter", "spilldepth"}

// scenarioKeys are the source keys each paper scenario reads.
var scenarioKeys = map[string][]string{"uc1": {"sim", "ana"}, "uc2": nil, "djsb": {"jobs", "ia", "nodes"}}

// unreadKey refuses a source key the spec's paper scenario does not
// read, naming it. A key counts as set when String would render it: a
// flag left at its default sets none.
func (s Spec) unreadKey() error {
	for _, k := range specKeys {
		if !slices.Contains(sourceKeys, k.name) || slices.Contains(scenarioKeys[s.Paper], k.name) {
			continue
		}
		if v := k.show(&s); v != "" {
			return fmt.Errorf("workload: scenario %s does not read key %s (%s=%s)", s.Paper, k.name, k.name, v)
		}
	}
	return nil
}

// Validate checks the spec with the checks the library types that own
// its fields make for themselves: each policy parses
// (sched.ParsePolicySet) or, on a paper scenario, is a builtin
// controller policy; the scenario and UC1's applications exist, and
// the scenario reads every source key set (unreadKey); the generator
// (or the DJSB stream) accepts its parameters, the trace mapping its
// options, and a session its run knobs. A spec that validates opens on
// every cell, but for what only opening finds (a missing trace file, a
// node-fault script naming a node the cluster lacks).
func (s Spec) Validate() error {
	for _, p := range s.Policies {
		if _, builtin := builtinPolicy(p); builtin != (s.Paper != "") {
			return fmt.Errorf("workload: policy %q: serial, drom, oversubscribe and preempt run a scenario "+
				"(uc1, uc2, djsb), the sched policies a trace", p)
		} else if !builtin {
			if _, err := sched.ParsePolicySet(p); err != nil {
				return fmt.Errorf("workload: policy %q: %w", p, err)
			}
		}
	}
	if !slices.Contains([]string{"", "uc1", "uc2", "djsb"}, s.Paper) {
		return fmt.Errorf("workload: unknown scenario %q (uc1, uc2, djsb)", s.Paper)
	}
	if s.Stream && s.Paper != "" {
		return fmt.Errorf("workload: stream replays a trace, not scenario %s", s.Paper)
	}
	if s.Paper != "" {
		if err := s.unreadKey(); err != nil {
			return err
		}
	}
	switch s.Paper {
	case "":
		if err := s.synthetic(0).check(); err != nil {
			return err
		}
		if err := s.swfOptions().check(); err != nil {
			return err
		}
	case "uc1":
		if _, err := s.uc1(); err != nil {
			return err
		}
	case "djsb":
		if err := checkStream(s.Jobs, s.MeanInterarrival, s.Nodes); err != nil {
			return fmt.Errorf("workload: scenario djsb: %w", err)
		}
	}
	sc := Scenario{Nodes: s.Nodes}
	s.knobsOnto(&sc, nil, 0)
	return sc.check()
}

// builtinPolicy returns the builtin controller policy named name: the
// policy axis of a paper scenario.
func builtinPolicy(name string) (slurm.Policy, bool) {
	for p := slurm.PolicySerial; p <= slurm.PolicyPreempt; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// policies returns the policy axis, defaulted.
func (s Spec) policies() []string {
	switch {
	case len(s.Policies) > 0:
		return s.Policies
	case s.Paper != "":
		return []string{"serial", "drom"}
	}
	return sched.Names()
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

// knobsOnto copies the run knobs onto a scenario; the fault and
// jitter streams are seeded from the cell's seed, so each cell is
// reproducible alone.
func (s Spec) knobsOnto(sc *Scenario, probe obs.Probe, seed int64) {
	sc.Spill, sc.SpillAfter, sc.SpillDepth = s.Spill, s.SpillAfter, s.SpillDepth
	sc.NodeFaults, sc.MTBF, sc.MTTR = s.NodeFaults, s.MTBF, s.MTTR
	sc.MaxRequeues, sc.FaultSeed = s.MaxRequeues, seed
	sc.DebugInvariants = s.DebugInvariants
	sc.Trace, sc.JitterFrac, sc.Seed = s.Trace, s.Jitter, seed
	sc.Probe = probe
}

// Scenario materializes the submissions of the spec's first seed —
// the paper scenario's, or the trace's from the file or the generator
// — without the run knobs: the scenario Open replays, which cells on
// one seed may share read-only. A paper scenario needs a spec that
// validates.
func (s Spec) Scenario() (Scenario, error) {
	if s.Paper != "" {
		if err := s.Validate(); err != nil {
			return Scenario{}, err
		}
		switch s.Paper {
		case "uc1":
			return s.uc1()
		case "uc2":
			return UC2(false), nil
		}
		return djsbScenario(s.seeds()[0], cmp.Or(s.Jobs, 20), cmp.Or(s.MeanInterarrival, 150), cmp.Or(s.Nodes, 2)), nil
	}
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

// uc1 builds UC1 on the spec's simulator and analytics.
func (s Spec) uc1() (Scenario, error) {
	sim, simCfg, err := table1App("sim", cmp.Or(s.Sim, "nest1"), "nest", "coreneuron")
	if err != nil {
		return Scenario{}, err
	}
	ana, anaCfg, err := table1App("ana", cmp.Or(s.Ana, "pils2"), "pils", "stream")
	if err != nil {
		return Scenario{}, err
	}
	return UC1(sim, simCfg, ana, anaCfg, false), nil
}

// table1App parses the value v of key: one of apps and its Table 1
// configuration, counted from 1 (nest1).
func table1App(key, v string, names ...string) (string, apps.Config, error) {
	name := strings.TrimRight(v, "0123456789")
	cfgs := apps.Table1(name)
	n, err := strconv.Atoi(v[len(name):])
	switch {
	case !slices.Contains(names, name):
		return "", apps.Config{}, fmt.Errorf("workload: %s %q: unknown application %q (%s)", key, v, name, strings.Join(names, ", "))
	case err != nil || n < 1 || n > len(cfgs):
		return "", apps.Config{}, fmt.Errorf("workload: %s %q: %s has Table 1 configurations 1..%d", key, v, name, len(cfgs))
	}
	return name, cfgs[n-1], nil
}

// Open opens the spec's first cell — its first policy on its first
// seed — as a session under probe (nil for none). A materialized cell
// replays sc, its submissions from Scenario (a trace scenario without
// Subs is an empty trace on the spec's cluster); a streamed trace
// (Stream) reads a fresh source, from the file or the generator,
// instead of sc.Subs. The run knobs are copied from the spec.
func (s Spec) Open(sc Scenario, probe obs.Probe) (*Session, error) {
	sc, src, policy, install, err := s.cell(sc, probe)
	if err != nil {
		return nil, err
	}
	return open(new(kit), sc, src, policy, install)
}

// run replays the spec's first cell over its Scenario once, on a
// pooled kit (see replay).
func (s Spec) run() Result {
	sc, err := s.Scenario()
	if err != nil {
		return Result{Err: err}
	}
	sc, src, policy, install, err := s.cell(sc, nil)
	if err != nil {
		return Result{Err: err}
	}
	return replay(sc, src, policy, install)
}

// cell resolves the spec's first cell over sc for open: sc with the
// run knobs, the source of its submissions (nil for sc.Subs), and the
// controller policy with its scheduling installer.
func (s Spec) cell(sc Scenario, probe obs.Probe) (Scenario, SubmissionSource, slurm.Policy, func(*slurm.Controller) error, error) {
	var install func(*slurm.Controller) error
	policy, builtin := builtinPolicy(s.policies()[0])
	if !builtin {
		ps, err := sched.ParsePolicySet(s.policies()[0])
		if err != nil {
			return sc, nil, 0, nil, err
		}
		policy, install = slurm.PolicyDROM, useSchedSet(ps)
	}
	seed := s.seeds()[0]
	var src SubmissionSource // nil: sc.Subs
	switch {
	case !s.Stream:
	case s.SWFPath == "":
		src = s.synthetic(seed).Source()
	default:
		f, err := os.Open(s.SWFPath)
		if err != nil {
			return sc, nil, 0, nil, err
		}
		src = NewSWFReaderSource(f, s.swfOptions())
	}
	if len(sc.Cluster.Partitions) == 0 && s.Paper == "" {
		sc.Cluster = s.swfOptions().clusterSpec()
	}
	s.knobsOnto(&sc, probe, seed)
	return sc, src, policy, install, nil
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
