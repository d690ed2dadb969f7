package hwmodel

// Partitioned, heterogeneous clusters. The paper evaluates DROM on a
// homogeneous MareNostrum III slice, but every production Slurm
// deployment (and every Parallel Workloads Archive trace) spans named
// partitions with different node shapes: a batch partition of standard
// nodes, a fat partition of large-memory nodes, and so on. ClusterSpec
// is that model: an ordered list of named partitions, each a
// homogeneous pool of one Machine type. Jobs target exactly one
// partition and are never placed across partitions, so no allocation
// ever mixes node shapes.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Partition is one named homogeneous slice of a cluster: Nodes
// identical nodes of one Machine type. Global node indices are
// assigned contiguously in partition order, so a partition owns the
// index range [offset, offset+Nodes).
type Partition struct {
	// Name identifies the partition (sbatch --partition). Names are
	// unique within a ClusterSpec.
	Name string
	// Nodes is the partition size in nodes.
	Nodes int
	// Machine is the node model every node of the partition shares.
	Machine Machine
}

// MaxNodes bounds a cluster's node count. It is not a setting: it
// keeps a mistyped size from exhausting memory instead of failing. The
// simulator holds about 2.4 KB per node — its shared-memory segment,
// DROM handles and the controller's per-node state — so 2^20 nodes
// replay a 20-job trace in about 2.5 GB of resident memory.
const MaxNodes = 1 << 20

// CheckNodes rejects a node-count setting (the Nodes field of a
// scenario, trace mapping or generator): 0 selects the caller's
// default; a negative count, or one above MaxNodes, is an error naming
// the field.
func CheckNodes(n int) error {
	switch {
	case n < 0:
		return fmt.Errorf("Nodes %d is negative (0 selects the default)", n)
	case n > MaxNodes:
		return fmt.Errorf("Nodes %d is above hwmodel.MaxNodes (%d)", n, MaxNodes)
	}
	return nil
}

// ClusterSpec describes a partitioned cluster. The zero value is
// invalid; build one with Homogeneous, ParseCluster, HeteroMN3 or a
// literal, and Validate it before use. Partition order is significant:
// it fixes the global node numbering and the default partition (index
// 0, the target of jobs that name none).
type ClusterSpec struct {
	Partitions []Partition
}

// Homogeneous wraps a single node type as a one-partition cluster:
// the degenerate case every pre-partition code path maps onto.
func Homogeneous(name string, m Machine, nodes int) ClusterSpec {
	return ClusterSpec{Partitions: []Partition{{Name: name, Nodes: nodes, Machine: m}}}
}

// FatNode returns the large-node model of the HeteroMN3 preset: four
// sockets of eight cores at 2.1 GHz with 80 GB/s of aggregate memory
// bandwidth — the "fat" shape MareNostrum-class sites operate next to
// their standard partition.
func FatNode() Machine {
	return Machine{
		SocketsPerNode: 4,
		CoresPerSocket: 8,
		FreqGHz:        2.1,
		MemBWGBs:       80,
	}
}

// HeteroMN3 returns the bundled heterogeneous preset: a "batch"
// partition of four MN3 nodes next to a "fat" partition of two
// FatNode machines. It is the default 2-partition scenario of the
// fault-aware replay tests and the `-cluster hetero` CLI shorthand.
func HeteroMN3() ClusterSpec {
	return ClusterSpec{Partitions: []Partition{
		{Name: "batch", Nodes: 4, Machine: MN3()},
		{Name: "fat", Nodes: 2, Machine: FatNode()},
	}}
}

// Validate checks the spec: at least one partition, unique non-empty
// names free of the grammar's separators, positive node counts that
// total at most MaxNodes, and machines with at least one core.
func (c ClusterSpec) Validate() error {
	if len(c.Partitions) == 0 {
		return fmt.Errorf("hwmodel: cluster spec has no partitions")
	}
	total := 0
	seen := make(map[string]bool, len(c.Partitions))
	for i, p := range c.Partitions {
		if p.Name == "" {
			return fmt.Errorf("hwmodel: partition %d has no name", i)
		}
		if strings.ContainsAny(p.Name, ":,;x@/ \t") {
			return fmt.Errorf("hwmodel: partition name %q contains a reserved character", p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("hwmodel: duplicate partition name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Nodes <= 0 {
			return fmt.Errorf("hwmodel: partition %q has %d nodes", p.Name, p.Nodes)
		}
		if p.Nodes > MaxNodes {
			return fmt.Errorf("hwmodel: partition %q has %d nodes, above MaxNodes (%d)", p.Name, p.Nodes, MaxNodes)
		}
		if total += p.Nodes; total > MaxNodes {
			return fmt.Errorf("hwmodel: cluster has %d nodes or more, above MaxNodes (%d)", total, MaxNodes)
		}
		if p.Machine.CoresPerNode() <= 0 {
			return fmt.Errorf("hwmodel: partition %q has an empty machine model", p.Name)
		}
	}
	return nil
}

// TotalNodes returns the node count summed over all partitions.
func (c ClusterSpec) TotalNodes() int {
	n := 0
	for _, p := range c.Partitions {
		n += p.Nodes
	}
	return n
}

// PartitionIndex resolves a partition name to its index. The empty
// name selects the default partition (index 0). ok is false for an
// unknown name.
func (c ClusterSpec) PartitionIndex(name string) (int, bool) {
	if name == "" {
		if len(c.Partitions) == 0 {
			return 0, false
		}
		return 0, true
	}
	for i, p := range c.Partitions {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}

// NodeOffset returns the global index of partition p's first node.
func (c ClusterSpec) NodeOffset(p int) int {
	off := 0
	for i := 0; i < p; i++ {
		off += c.Partitions[i].Nodes
	}
	return off
}

// String renders the spec in the ParseCluster grammar, using the mn3
// and fat shorthands where the machine matches those presets exactly.
func (c ClusterSpec) String() string {
	var sb strings.Builder
	for i, p := range c.Partitions {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s:%dx%s", p.Name, p.Nodes, machineShape(p.Machine))
	}
	return sb.String()
}

// machineShape renders one machine in the shape grammar.
func machineShape(m Machine) string {
	switch m {
	case MN3():
		return "mn3"
	case FatNode():
		return "fat"
	}
	s := fmt.Sprintf("%ds%dc", m.SocketsPerNode, m.CoresPerSocket)
	if m.FreqGHz != defaultFreqGHz {
		s += "@" + strconv.FormatFloat(m.FreqGHz, 'g', -1, 64)
	}
	if m.MemBWGBs != defaultMemBWGBs {
		s += "/" + strconv.FormatFloat(m.MemBWGBs, 'g', -1, 64)
	}
	return s
}

// Defaults a custom shape inherits when the spec omits the optional
// clock and bandwidth fields (the MN3 values).
const (
	defaultFreqGHz  = 2.6
	defaultMemBWGBs = 41
)

// ParseCluster parses the compact cluster-spec grammar used by the
// `slurmsim -cluster` flag and the sweep grid's `cluster=` key:
//
//	spec      = partition *( "," partition )
//	partition = name ":" nodes "x" shape
//	shape     = "mn3" | "fat" | sockets "s" cores "c" [ "@" ghz ] [ "/" bwGBs ]
//
// Examples:
//
//	batch:4xmn3                          4 MareNostrum III nodes
//	batch:4xmn3,fat:2x4s8c@2.1/80        + 2 fat nodes (32 cores, 2.1 GHz, 80 GB/s; renders as fat)
//	small:8x2s4c                         8 custom nodes (MN3 clock and bandwidth)
//
// The shorthand "hetero" expands to the HeteroMN3 preset. Omitted
// clock/bandwidth default to the MN3 values (2.6 GHz, 41 GB/s). Memory
// capacity is not modelled: the paper notes DROM never reduces a
// job's allocated memory.
func ParseCluster(spec string) (ClusterSpec, error) {
	if spec == "hetero" {
		return HeteroMN3(), nil
	}
	var c ClusterSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, ":")
		if !ok {
			return ClusterSpec{}, fmt.Errorf("hwmodel: partition %q: want name:<nodes>x<shape>", part)
		}
		nstr, shape, ok := strings.Cut(rest, "x")
		if !ok {
			return ClusterSpec{}, fmt.Errorf("hwmodel: partition %q: want name:<nodes>x<shape>", part)
		}
		nodes, err := strconv.Atoi(nstr)
		if err != nil || nodes <= 0 {
			return ClusterSpec{}, fmt.Errorf("hwmodel: partition %q: bad node count %q", part, nstr)
		}
		m, err := parseShape(shape)
		if err != nil {
			return ClusterSpec{}, fmt.Errorf("hwmodel: partition %q: %v", part, err)
		}
		c.Partitions = append(c.Partitions, Partition{Name: name, Nodes: nodes, Machine: m})
	}
	if err := c.Validate(); err != nil {
		return ClusterSpec{}, err
	}
	return c, nil
}

// parseShape parses one machine shape of the cluster grammar.
func parseShape(s string) (Machine, error) {
	switch s {
	case "mn3":
		return MN3(), nil
	case "fat":
		return FatNode(), nil
	}
	m := Machine{FreqGHz: defaultFreqGHz, MemBWGBs: defaultMemBWGBs}
	if bw, rest, ok := cutLast(s, "/"); ok {
		v, err := strconv.ParseFloat(bw, 64)
		// ParseFloat accepts "nan" and "inf" spellings without error, so
		// the positivity check alone does not keep them out (NaN fails
		// every comparison).
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return Machine{}, fmt.Errorf("bad bandwidth %q", bw)
		}
		m.MemBWGBs = v
		s = rest
	}
	if ghz, rest, ok := cutLast(s, "@"); ok {
		v, err := strconv.ParseFloat(ghz, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return Machine{}, fmt.Errorf("bad clock %q", ghz)
		}
		m.FreqGHz = v
		s = rest
	}
	sstr, cpart, ok := strings.Cut(s, "s")
	if !ok || !strings.HasSuffix(cpart, "c") {
		return Machine{}, fmt.Errorf("bad shape %q (want <S>s<C>c, mn3, or fat)", s)
	}
	sockets, err1 := strconv.Atoi(sstr)
	cores, err2 := strconv.Atoi(strings.TrimSuffix(cpart, "c"))
	if err1 != nil || err2 != nil || sockets <= 0 || cores <= 0 {
		return Machine{}, fmt.Errorf("bad shape %q (want <S>s<C>c, mn3, or fat)", s)
	}
	m.SocketsPerNode, m.CoresPerSocket = sockets, cores
	return m, nil
}

// cutLast splits s around the last occurrence of sep, returning the
// suffix first (the optional field) and the prefix second.
func cutLast(s, sep string) (suffix, prefix string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return "", s, false
	}
	return s[i+len(sep):], s[:i], true
}
