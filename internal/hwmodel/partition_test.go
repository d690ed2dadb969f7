package hwmodel

import (
	"strings"
	"testing"
)

func TestHomogeneousSpec(t *testing.T) {
	c := Homogeneous("batch", MN3(), 4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalNodes(); got != 4 {
		t.Fatalf("TotalNodes = %d, want 4", got)
	}
	if i, ok := c.PartitionIndex(""); !ok || i != 0 {
		t.Fatalf("empty name -> (%d,%v), want (0,true)", i, ok)
	}
	if _, ok := c.PartitionIndex("fat"); ok {
		t.Fatal("unknown partition resolved")
	}
}

func TestHeteroMN3Layout(t *testing.T) {
	c := HeteroMN3()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalNodes(); got != 6 {
		t.Fatalf("TotalNodes = %d, want 6", got)
	}
	if off := c.NodeOffset(1); off != 4 {
		t.Fatalf("fat offset = %d, want 4", off)
	}
	if m := c.Partitions[1].Machine; m.CoresPerNode() != 32 {
		t.Fatalf("fat node has %d cores, want 32", m.CoresPerNode())
	}
	if i, ok := c.PartitionIndex("fat"); !ok || i != 1 {
		t.Fatalf("PartitionIndex(fat) = (%d,%v)", i, ok)
	}
}

func TestParseClusterRoundTrip(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"batch:4xmn3", "batch:4xmn3"},
		{"batch:4xmn3,fat:2xfat", "batch:4xmn3,fat:2xfat"},
		{"small:8x2s4c", "small:8x2s4c"},
		{"big:2x4s16c@2.1/80", "big:2x4s16c@2.1/80"},
		// A custom shape equal to a preset in every modelled parameter
		// renders as the preset.
		{"big:2x4s8c@2.1/80", "big:2xfat"},
	} {
		spec := tc.spec
		c, err := ParseCluster(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got := c.String(); got != tc.want {
			t.Fatalf("%q round-tripped to %q, want %q", spec, got, tc.want)
		}
		c2, err := ParseCluster(c.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", c.String(), err)
		}
		if c2.String() != c.String() {
			t.Fatalf("unstable render: %q vs %q", c2.String(), c.String())
		}
	}
}

func TestParseClusterPreset(t *testing.T) {
	c, err := ParseCluster("hetero")
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != HeteroMN3().String() {
		t.Fatalf("hetero = %q, want %q", c.String(), HeteroMN3().String())
	}
}

func TestParseClusterDefaults(t *testing.T) {
	c, err := ParseCluster("p:1x2s8c")
	if err != nil {
		t.Fatal(err)
	}
	m := c.Partitions[0].Machine
	if m.FreqGHz != 2.6 || m.MemBWGBs != 41 {
		t.Fatalf("defaults not applied: %+v", m)
	}
}

func TestParseClusterErrors(t *testing.T) {
	for _, spec := range []string{
		"",                  // no partitions
		"batch",             // no colon
		"batch:4",           // no shape
		"batch:0xmn3",       // zero nodes
		"batch:4xbogus",     // bad shape
		"batch:4x2s0c",      // zero cores
		"batch:4x2s8c@zero", // bad clock
		"batch:4x2s8c/-1",   // bad bandwidth
		"a:1xmn3,a:1xmn3",   // duplicate name
		"ba tch:1xmn3",      // reserved char
	} {
		if _, err := ParseCluster(spec); err == nil {
			t.Fatalf("%q: expected error", spec)
		}
	}
	// A node count past MaxNodes — in one partition, or summed over
	// several — is an error naming the bound, not a run that exhausts
	// memory.
	for _, spec := range []string{
		"batch:99999999999xmn3",
		"batch:1048577xmn3",
		"batch:600000xmn3,fat:600000xfat",
	} {
		if _, err := ParseCluster(spec); err == nil || !strings.Contains(err.Error(), "MaxNodes") {
			t.Errorf("%q: error = %v, want one naming MaxNodes", spec, err)
		}
	}
	if _, err := ParseCluster("batch:1048576xmn3"); err != nil {
		t.Errorf("a cluster of exactly MaxNodes nodes: %v", err)
	}
}

// TestCheckNodes: 0 selects a default, a count up to MaxNodes passes,
// a negative one or one past MaxNodes is an error naming the field.
func TestCheckNodes(t *testing.T) {
	for _, n := range []int{0, 1, MaxNodes} {
		if err := CheckNodes(n); err != nil {
			t.Errorf("CheckNodes(%d) = %v", n, err)
		}
	}
	for _, n := range []int{-1, -2, MaxNodes + 1, 3000000} {
		if err := CheckNodes(n); err == nil || !strings.Contains(err.Error(), "Nodes") {
			t.Errorf("CheckNodes(%d) = %v, want an error naming Nodes", n, err)
		}
	}
}
