package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// buildServers builds echoimaged and echoimage-router from the tree.
func buildServers(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/echoimaged", "./cmd/echoimage-router")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	return bin
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, x := range list {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

func metricNames(res *result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpecNamesWorkloads(t *testing.T) {
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	sort.Strings(defined)
	if got := names(readSpec(t).Workloads); !equal(got, defined) {
		t.Errorf("BENCHMARK.json workloads %v, program defines %v", got, defined)
	}
}

// smallest runs a workload at its minimal size: one pass per phase.
func smallest(w workload, bin string, seed int64) config {
	return config{w: w, seed: seed, seconds: 1, bin: bin}
}

func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	bin := buildServers(t)
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := endToEndRun(smallest(w, bin, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := metricNames(res), names(spec.EndToEnd); !equal(got, want) {
				t.Errorf("metrics %v, BENCHMARK.json end_to_end %v", got, want)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || m.Value <= 0 {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

// TestDecisionsRepeat checks the behaviour gate: accept and reject counts
// are identical across runs on one seed, and well formed on another.
func TestDecisionsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	bin := buildServers(t)
	w, err := findWorkload("routed-4beep")
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]metric
	for _, seed := range []int64{1, 1, 2} {
		res, err := endToEndRun(smallest(w, bin, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("seed %d: run not correct", seed)
		}
		got = append(got, res.Metrics)
	}
	for _, name := range []string{"accept_ratio", "reject_ratio"} {
		if got[0][name] != got[1][name] {
			t.Errorf("%s differs across runs on one seed: %v vs %v", name, got[0][name], got[1][name])
		}
		if v := got[2][name].Value; !(v > 0 && v <= 1) {
			t.Errorf("%s on a second seed = %v, want in (0, 1]", name, v)
		}
	}
}

func TestTracedRunAccounts(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	bin := buildServers(t)
	spec := readSpec(t)
	for _, name := range []string{"routed-4beep"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tracedRun(smallest(w, bin, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
		}
		if got, want := metricNames(res), names(spec.PerLayer); !equal(got, want) {
			t.Errorf("metrics %v, BENCHMARK.json per_layer %v", got, want)
		}
		if res.Metrics["cluster.hop_ms"].Value == 0 {
			t.Error("routed workload reports no router hop")
		}
	}
}
