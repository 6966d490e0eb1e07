// Command perfbench is the EchoImage end-to-end benchmark. It starts real
// echoimaged and echoimage-router processes built from the tree, drives
// them from this single load-generator process with at most nproc
// connections, checks every reply, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the binaries first:
//
//	bash .perfbench/run.sh --workload routed-4beep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced pass reports per-layer self times. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"
)

// setupRuns is how many times an untraced run sets the tier up; setup_s
// is their median.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w       workload
	seed    int64
	seconds int
	bin     string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "seconds the timed phases take on a 2-core VM")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		bin     = flag.String("bin", "", "directory holding echoimaged and echoimage-router")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -bin, -seconds >= 1 and -trace 0 or 1"))
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, bin: *bin}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = endToEndRun(cfg)
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// passes scales a workload's pass count for a 30-second run to --seconds.
func (c config) passes(base int) int {
	return max(1, int(math.Round(float64(base)*float64(c.seconds)/30)))
}

// repeat lists the probe order n times over.
func repeat(order []int, n int) []int {
	var jobs []int
	for k := 0; k < n; k++ {
		jobs = append(jobs, order...)
	}
	return jobs
}

// rounds is how many turns the timed phases take. Each phase's jobs are
// split across the rounds, and odd rounds run the phases in reverse
// order, so a slow stretch of a shared host lands a little in every
// metric instead of entirely in one.
const rounds = 4

// part returns share k of n of s.
func part[T any](s []T, k, n int) []T { return s[k*len(s)/n : (k+1)*len(s)/n] }

// endToEndRun measures the workload the way a caller sees it.
func endToEndRun(cfg config) (*result, error) {
	w := cfg.w
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	in, err := render(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	l := newLedger()

	// Every tier enrolls its share of the newcomers: the first tiers right
	// after set-up, before they are stopped, the last one after the timed
	// phases, so that no probe is answered by a model with newcomers in it.
	var (
		setups []float64
		ready  sample
		t      *topology
	)
	for k := 0; k < setupRuns; k++ {
		if t != nil {
			t.stop()
		}
		var d time.Duration
		t, d, err = setUp(cfg.bin, w, in, l)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setups = append(setups, d.Seconds())
		if k < setupRuns-1 {
			if err := enrollPhase(t, w, part(in.newcomers, k, setupRuns), l, &ready); err != nil {
				t.stop()
				return nil, err
			}
		}
	}
	defer t.stop()

	soloJobs := repeat(in.order, cfg.passes(w.solo))
	loadedJobs := repeat(in.order, cfg.passes(w.loaded))
	loadedGaps := gaps(w.rate, len(loadedJobs), rand.New(rand.NewSource(cfg.seed)))
	tputJobs := repeat(in.order, cfg.passes(w.throughput))
	var (
		solo   sample
		loaded openLoop
		tput   closedLoop
	)
	for r := 0; r < rounds; r++ {
		phases := []func() error{
			func() error {
				s, err := soloPhase(t.entry(), in, l, part(soloJobs, r, rounds))
				solo = append(solo, s...)
				return err
			},
			func() error {
				o, err := loadedPhase(t.entry(), in, l, part(loadedJobs, r, rounds), part(loadedGaps, r, rounds), nproc())
				if err == nil {
					loaded.lat = append(loaded.lat, o.lat...)
					loaded.lateness = max(loaded.lateness, o.lateness)
				}
				return err
			},
			func() error {
				// Throughput runs in halves, in even rounds: each run ends
				// with one connection idle, and shorter runs lose more to it.
				if r%2 == 1 {
					return nil
				}
				c, err := throughputPhase(t, in, l, part(tputJobs, r/2, rounds/2), nproc())
				if err == nil {
					tput.add(c)
				}
				return err
			},
		}
		for k := range phases {
			if r%2 == 1 {
				k = len(phases) - 1 - k
			}
			if err := phases[k](); err != nil {
				return nil, err
			}
		}
	}
	// Every probe has been answered; the first answers are the reference
	// decisions.
	accept, reject := decisions(in, l)
	if err := enrollPhase(t, w, part(in.newcomers, setupRuns-1, setupRuns), l, &ready); err != nil {
		return nil, err
	}
	rss, err := t.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}

	soloSorted := solo.sorted()
	r := &report{}
	r.line("workload %s, seed %d, %d s measured, %d connections", w.name, cfg.seed, cfg.seconds, nproc())
	r.line("set-up: %d runs, median %.3f s (%v)", len(setups), median(setups), setups)
	r.line("solo: n=%d p50 %.1f ms p90 %.1f ms (%d samples beyond p90; %s)",
		len(solo), solo.median(), quantile(soloSorted, 0.9), beyond(len(solo), 0.9), tailNote(soloSorted))
	r.line("loaded: %.2f/s Poisson, n=%d p50 %.1f ms, generator max lateness %.1f ms", w.rate, len(loaded.lat), loaded.lat.median(), ms(loaded.lateness))
	r.line("throughput: %d completed in %.2f s on %d connections, server CPU %.0f ms", tput.completed, tput.elapsed.Seconds(), nproc(), tput.cpuMillis)
	r.line("enroll ready: n=%d mean %.1f ms, each %.0f", len(ready), ready.mean(), []float64(ready))
	r.line("accept %d/%d, reject %d/%d", accept.hits, accept.base, reject.hits, reject.base)
	r.line("server peak RSS %.1f MiB, host CPU steal %.2f%%", rss, 100*stealShare(host0, host1))
	r.phases(l)
	r.print()

	res := &result{Metrics: map[string]metric{
		"solo_p50_ms":          {solo.median(), "ms"},
		"loaded_p50_ms":        {loaded.lat.median(), "ms"},
		"throughput_rps":       {float64(tput.completed) / tput.elapsed.Seconds(), "1/s"},
		"server_cpu_ms_per_op": {tput.cpuMillis / float64(tput.completed), "ms"},
		"accept_ratio":         {accept.value(), "ratio"},
		"reject_ratio":         {reject.value(), "ratio"},
		"setup_s":              {median(setups), "s"},
		"server_rss_mib":       {rss, "MiB"},
		"enroll_ready_ms":      {ready.mean(), "ms"},
	}}
	return finish(res, l, len(solo) > 0 && len(loaded.lat) > 0 && tput.completed > 0 && len(ready) > 0), nil
}

// finish fills the op counts and the verdict.
func finish(res *result, l *ledger, measured bool) *result {
	l.mu.Lock()
	res.Attempted = l.attempted
	l.mu.Unlock()
	res.Failed = l.failed()
	res.Correct = measured && res.Failed == 0
	return res
}

// enrollPhase enrolls each newcomer on an otherwise idle tier and adds to
// ready how long each took until it could authenticate.
func enrollPhase(t *topology, w workload, newcomers []capture, l *ledger, ready *sample) error {
	c, err := dial(t.entry(), "enroll-ready")
	if err != nil {
		return err
	}
	defer c.close()
	p := l.phase("enroll-ready")
	for _, e := range newcomers {
		d, err := enrollReady(c, e, w.beeps)
		l.record(p, err)
		if err == nil {
			ready.add(d)
		}
	}
	return nil
}

// report collects the human-readable lines printed before the JSON line.
type report struct{ lines []string }

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) phases(l *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		r.line("phase %-14s attempted %4d succeeded %4d failed %d", p.name, p.attempted, p.succeeded, p.failed)
	}
	r.line("decision mismatches %d, overloaded replies %d", l.mismatch, l.overload)
	for _, e := range l.errors {
		r.line("error: %s", e)
	}
}

func (r *report) print() {
	for _, s := range r.lines {
		fmt.Println(s)
	}
}
