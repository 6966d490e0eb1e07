// Command bench-report runs the repository benchmark suite and records the
// results as JSON, so successive optimization PRs can be compared against
// earlier runs (see BENCH_1.json at the repo root).
//
// Usage:
//
//	bench-report -bench 'BenchmarkFigure8|BenchmarkImagingPlan' -o BENCH_1.json -label post-plan
//	bench-report -append -o BENCH_1.json -label retest
//	bench-report -prev BENCH_5.json -gate -o BENCH_6.json
//
// With -append the existing file is loaded and the new run is added to its
// run list; otherwise the file is overwritten with a single-run report.
//
// With -prev the new run is diffed against a run of the given report —
// the last one, or the one named by -prev-run:
// per-benchmark ns/op and allocs/op deltas are printed, and regressions
// beyond 10% are flagged. With -gate such regressions also make the command
// exit non-zero, which is how `make bench-ci` turns performance losses into
// CI failures. Wall-clock deltas are gated only for benchmarks whose
// baseline is at least 50 ms — faster benchmarks jitter past 10% from
// machine noise alone at -benchtime=1x — and a flagged ns/op regression is
// re-run once and must hold past double the threshold on the better of the
// two samples before it gates, since shared-hardware CPU steal alone moves
// single samples past 10%. allocs/op is deterministic, so it is gated at
// any size with no confirmation pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-report:", err)
		os.Exit(1)
	}
}

func run() error {
	bench := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "value passed to go test -benchtime")
	count := flag.Int("count", 1, "value passed to go test -count")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("o", "BENCH_1.json", "output JSON file")
	label := flag.String("label", "", "label recorded for this run (default: current date)")
	appendRun := flag.Bool("append", false, "append to an existing report instead of overwriting")
	prev := flag.String("prev", "", "previous BENCH_*.json to diff the new run against")
	prevRun := flag.String("prev-run", "", "label of the -prev run to diff against (default: its last run)")
	gate := flag.Bool("gate", false, "exit non-zero when -prev shows a >10% regression")
	flag.Parse()

	name := *label
	if name == "" {
		name = time.Now().UTC().Format("2006-01-02")
	}

	raw, err := runBenchmarks(*pkg, *bench, *benchtime, *count)
	if err != nil {
		return err
	}
	benches, cpu := parseBenchOutput(raw)
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark result lines matched %q", *bench)
	}

	rep := Report{}
	if *appendRun {
		if loaded, err := readReport(*out); err == nil {
			rep = *loaded
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	rep.Runs = append(rep.Runs, Run{
		Label:      name,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		CPU:        cpu,
		Benchmarks: benches,
	})
	if err := rep.Write(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: run %q with %d benchmarks\n", *out, name, len(benches))

	if *prev != "" {
		allocRegressed, nsRegressed, baseline, err := diffAgainst(*prev, *prevRun, benches)
		if err != nil {
			return err
		}
		if *gate && len(nsRegressed) > 0 {
			first := make(map[string]float64, len(benches))
			for _, b := range benches {
				first[b.Name] = b.NsPerOp
			}
			nsRegressed, err = confirmNsRegressions(*pkg, nsRegressed, first, baseline)
			if err != nil {
				return err
			}
		}
		if n := allocRegressed + len(nsRegressed); n > 0 && *gate {
			return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs %s", n, regressThreshold*100, *prev)
		}
	}
	return nil
}

// confirmNsThreshold is the relative slowdown a wall-clock regression must
// sustain across both samples before it gates. It is double the flagging
// threshold: CI runs on shared (often single-vCPU) hardware where hypervisor
// CPU steal alone moves ns/op by 10-15% between a quiet and a busy hour, so
// gating wall clock at the flagging threshold would flake on environment,
// not code. allocs/op has no such allowance — it is deterministic.
const confirmNsThreshold = 2 * regressThreshold

// confirmNsRegressions re-runs only the wall-clock-regressed benchmarks and
// keeps a name on the list only when the better of the two samples is still
// past confirmNsThreshold. A single -benchtime=1x sample can double from
// co-tenant CPU contention alone (the parallel imaging benchmarks are the
// worst), so a ns/op failure must be seen twice — and clearly — before it
// gates.
func confirmNsRegressions(pkg string, names []string, first map[string]float64, baseline map[string]Benchmark) ([]string, error) {
	fmt.Printf("\nconfirming %d wall-clock regression(s) with a re-run (gate at >%.0f%%):\n",
		len(names), confirmNsThreshold*100)
	pat := "^(" + strings.Join(names, "|") + ")$"
	raw, err := runBenchmarks(pkg, pat, "3x", 1)
	if err != nil {
		return nil, err
	}
	rerun, _ := parseBenchOutput(raw)
	second := make(map[string]float64, len(rerun))
	for _, b := range rerun {
		second[b.Name] = b.NsPerOp
	}
	var confirmed []string
	for _, name := range names {
		best, ok := second[name]
		if !ok {
			// The benchmark vanished on re-run; keep the original verdict.
			confirmed = append(confirmed, name)
			continue
		}
		if ns := first[name]; ns > 0 && ns < best {
			best = ns
		}
		delta := relDelta(best, baseline[name].NsPerOp)
		verdict := "transient, ignored"
		if delta > confirmNsThreshold {
			verdict = "CONFIRMED"
			confirmed = append(confirmed, name)
		}
		fmt.Printf("  %-45s %12.0f ns/op (%+6.1f%%)  %s\n", name, best, delta*100, verdict)
	}
	return confirmed, nil
}

// regressThreshold is the relative slowdown (or alloc growth) that counts
// as a regression when diffing against a previous report.
const regressThreshold = 0.10

// gateNsFloor is the minimum baseline ns/op for wall-clock gating;
// benchmarks faster than this jitter past the threshold from scheduling
// noise alone, so only their alloc counts are gated. 50 ms clears the
// observed single-iteration noise band (~10-15% on 10 ms benchmarks at
// -benchtime=1x) while keeping every headline figure benchmark gated.
const gateNsFloor = 50e6

// diffAgainst compares the new benchmarks against the last run of the
// report at path (the last run, or the one labeled runLabel), printing
// per-benchmark deltas. It returns the count of
// allocs/op regressions (gated immediately), the names of the ns/op
// regressions (gated only after confirmNsRegressions reproduces them), and
// the baseline map for that confirmation pass.
func diffAgainst(path, runLabel string, benches []Benchmark) (int, []string, map[string]Benchmark, error) {
	prevRep, err := readReport(path)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read previous report: %w", err)
	}
	base, ok := prevRep.Run(runLabel)
	if !ok {
		return 0, nil, nil, fmt.Errorf("%s has no run labeled %q", path, runLabel)
	}
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}

	fmt.Printf("\ndiff vs %s (run %q):\n", path, base.Label)
	allocRegressed := 0
	var nsRegressed []string
	for _, b := range benches {
		was, ok := baseline[b.Name]
		if !ok {
			fmt.Printf("  %-45s %12.0f ns/op %8d allocs/op  (new)\n", b.Name, b.NsPerOp, b.AllocsPerOp)
			continue
		}
		nsDelta := relDelta(b.NsPerOp, was.NsPerOp)
		allocDelta := relDelta(float64(b.AllocsPerOp), float64(was.AllocsPerOp))
		mark := ""
		if nsDelta > regressThreshold && was.NsPerOp >= gateNsFloor {
			mark = "  REGRESSION(ns/op)"
			nsRegressed = append(nsRegressed, b.Name)
		}
		if allocDelta > regressThreshold {
			mark += "  REGRESSION(allocs/op)"
			allocRegressed++
		}
		fmt.Printf("  %-45s %12.0f ns/op (%+6.1f%%) %8d allocs/op (%+6.1f%%)%s\n",
			b.Name, b.NsPerOp, nsDelta*100, b.AllocsPerOp, allocDelta*100, mark)
	}
	return allocRegressed, nsRegressed, baseline, nil
}

// relDelta returns (now-was)/was, treating a zero baseline as no change
// (nothing to regress against).
func relDelta(now, was float64) float64 {
	if was <= 0 {
		return 0
	}
	return (now - was) / was
}

// runBenchmarks shells out to go test and returns the combined output.
// Benchmark failures surface as a non-nil error with the output attached.
func runBenchmarks(pkg, bench, benchtime string, count int) (string, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", bench,
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		"-benchmem",
		pkg,
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// benchLine matches `BenchmarkName-8  10  123456 ns/op  42 B/op  7 allocs/op`
// (the memory columns are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func parseBenchOutput(out string) ([]Benchmark, string) {
	var benches []Benchmark
	var cpu string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = v
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		benches = append(benches, b)
	}
	return benches, cpu
}
