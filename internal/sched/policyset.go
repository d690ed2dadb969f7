package sched

import (
	"fmt"
	"sort"
	"strings"
)

// PolicySet assigns a scheduling policy to each partition of a
// cluster, parsed from the `-sched` grammar:
//
//	set       = entry *( "," entry )
//	entry     = policy | partition "=" policy
//
// A bare policy name is the set's default (at most one may appear);
// a partition=policy pair overrides it for that partition. The
// backward-compatible single-policy form ("easy") is therefore just a
// set with only a default. Examples:
//
//	easy                             every partition runs EASY
//	batch=easy,fat=malleable-shrink  per-partition policies, no default
//	easy,fat=malleable-expand        EASY everywhere except fat
//
// Policy names accept the same aliases as New; they are canonicalized
// at parse time, so String always renders canonical names. A PolicySet
// holds names, not instances: the executor asks NewFor for one fresh
// Policy instance per partition, which the scratch-buffer contract
// requires (a shared instance would see alternating partition shapes
// every cycle).
type PolicySet struct {
	// Default is the canonical policy name for partitions without an
	// explicit entry ("" when the set names every partition it serves).
	Default string
	// ByPartition maps partition names to canonical policy names.
	ByPartition map[string]string
}

// ParsePolicySet parses the set grammar above. Every policy name is
// validated (and canonicalized) through New.
func ParsePolicySet(spec string) (PolicySet, error) {
	ps := PolicySet{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		part, name, pair := strings.Cut(entry, "=")
		part = strings.TrimSpace(part)
		if !pair {
			name, part = part, ""
		}
		if pair && part == "" {
			return PolicySet{}, fmt.Errorf("sched: policy set %q: entry %q names no partition", spec, entry)
		}
		canon, err := canonicalPolicy(name)
		if err != nil {
			return PolicySet{}, err
		}
		if !pair {
			if ps.Default != "" {
				return PolicySet{}, fmt.Errorf("sched: policy set %q has two default policies (%s, %s)",
					spec, ps.Default, canon)
			}
			ps.Default = canon
			continue
		}
		if ps.ByPartition == nil {
			ps.ByPartition = make(map[string]string)
		}
		if prev, dup := ps.ByPartition[part]; dup {
			return PolicySet{}, fmt.Errorf("sched: policy set %q names partition %q twice (%s, %s)",
				spec, part, prev, canon)
		}
		ps.ByPartition[part] = canon
	}
	if ps.Default == "" && len(ps.ByPartition) == 0 {
		return PolicySet{}, fmt.Errorf("sched: empty policy set %q", spec)
	}
	return ps, nil
}

// canonicalPolicy resolves a policy name (or alias) to its canonical
// form, rejecting unknown names.
func canonicalPolicy(name string) (string, error) {
	p, err := New(strings.TrimSpace(name))
	if err != nil {
		return "", err
	}
	return p.Name(), nil
}

// PolicyFor returns the canonical policy name serving the named
// partition; ok is false when the set has neither an entry for it nor
// a default.
func (ps PolicySet) PolicyFor(partition string) (string, bool) {
	if name, ok := ps.ByPartition[partition]; ok {
		return name, true
	}
	if ps.Default != "" {
		return ps.Default, true
	}
	return "", false
}

// NewFor instantiates a fresh policy for the named partition. Each
// call returns a new instance: policies carry scratch buffers, so an
// executor must hold one per partition.
func (ps PolicySet) NewFor(partition string) (Policy, error) {
	name, ok := ps.PolicyFor(partition)
	if !ok {
		return nil, fmt.Errorf("sched: policy set %s has no policy for partition %q", ps, partition)
	}
	return New(name)
}

// String renders the set in the parse grammar: the default first,
// then partition=policy pairs sorted by partition name.
func (ps PolicySet) String() string {
	parts := make([]string, 0, len(ps.ByPartition)+1)
	if ps.Default != "" {
		parts = append(parts, ps.Default)
	}
	names := make([]string, 0, len(ps.ByPartition))
	for part := range ps.ByPartition { //simvet:ordered keys collected and sorted below
		names = append(names, part)
	}
	sort.Strings(names)
	for _, part := range names {
		parts = append(parts, part+"="+ps.ByPartition[part])
	}
	return strings.Join(parts, ",")
}
