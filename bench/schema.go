package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDecl is one metric declaration of BENCHMARK.json. Bound is
// the share of the baseline median by which an end-to-end metric may
// worsen before it counts as a regression (per-layer metrics have
// none).
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// schema is BENCHMARK.json: the contract between this benchmark, its
// driver and every later change that cites a metric.
type schema struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadSchema reads BENCHMARK.json from the working directory or, when
// the benchmark runs from inside its own directory (go test), from
// the parent.
func loadSchema() (*schema, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s schema
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// decls returns the metric declarations one kind of run must emit:
// the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func (s *schema) decls(traced bool) []metricDecl {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard
// output (the driver's contract): whether every output check passed,
// how many operations were attempted and failed, and the metrics of
// the run's kind.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// seal turns measured values into the contract's metric map: exactly
// the declared names, each with its declared unit. A value that was
// not measured, or a measured name that is not declared, is a bug in
// the benchmark and reported as an error.
func seal(decls []metricDecl, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured as %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
