package main

// The BENCH_*.json report schema bench-report writes when it records
// `go test -bench` runs and reads when it gates a new run against an
// earlier one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// reportSchema identifies the report format; every report carries it and
// every reader checks it.
const reportSchema = "echoimage-bench/v1"

// Report is the top-level BENCH_*.json document.
type Report struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one invocation of the benchmark suite (or, in BENCH_8.json, one
// load experiment).
type Run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one measured figure, normally a parsed `go test -bench`
// result line. BENCH_8.json's load-experiment runs use the same shape
// for percentile latencies (NsPerOp) and counters (Iterations).
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// readReport loads and schema-checks a report.
func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s has schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// Write renders the report as indented JSON at path.
func (r *Report) Write(path string) error {
	r.Schema = reportSchema
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Run returns the run with the given label, or the last run when label
// is empty. The second return is false when no run matches (or the
// report is empty).
func (r *Report) Run(label string) (*Run, bool) {
	if label == "" {
		if len(r.Runs) == 0 {
			return nil, false
		}
		return &r.Runs[len(r.Runs)-1], true
	}
	for i := range r.Runs {
		if r.Runs[i].Label == label {
			return &r.Runs[i], true
		}
	}
	return nil, false
}
