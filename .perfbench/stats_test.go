package main

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"echoimage/internal/proto"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75},
		{100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); q > 0 && beyond(c.n, q) < minTail {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, q, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty sample should give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The name holds spaces and a ')', so fields count from the last ')'.
	line := "4242 (a (b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 9 0 100 1000 200"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(250+75) * 1000 / clockTicks; got != want {
		t.Errorf("cpu = %v ms, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}
	if _, err := parseStatCPU("no name"); err == nil {
		t.Error("stat line without a name accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tx\nVmPeak:\t 9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("VmHWM = %v MiB, want 2", got)
	}
	if _, err := parseVmHWM("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t 1 MB\n"); err == nil {
		t.Error("VmHWM in an unknown unit accepted")
	}
}

func TestHostCPUSteal(t *testing.T) {
	a, err := parseHostCPU("cpu  100 0 50 800 10 0 5 20 7 0\ncpu0 1 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 985 || a.steal != 20 {
		t.Fatalf("parsed %+v, want total 985 steal 20", a)
	}
	b := hostCPU{total: a.total + 200, steal: a.steal + 10}
	if got := stealShare(a, b); got != 0.05 {
		t.Errorf("steal share = %v, want 0.05", got)
	}
	if got := stealShare(b, b); got != 0 {
		t.Errorf("steal share over no time = %v, want 0", got)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("/proc/stat without a cpu line accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	start := time.Now()
	for x := 0.0; time.Since(start) < 50*time.Millisecond; x += math.Sqrt(x + 1) {
	}
	cpu, err := cpuMillis(os.Getpid())
	if err != nil || cpu <= 0 {
		t.Errorf("cpuMillis(self) = %v, %v; want > 0", cpu, err)
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("peakRSSMiB(self) = %v, %v; want > 0", rss, err)
	}
	if _, err := readHostCPU(); err != nil {
		t.Error(err)
	}
}

func TestDecisionBases(t *testing.T) {
	in := &inputs{probes: []probe{
		{capture: capture{subject: 1}, enrolled: true},
		{capture: capture{subject: 2}, enrolled: true},
		{capture: capture{subject: 3}, enrolled: true},
		{capture: capture{subject: 9}},
		{capture: capture{subject: 10}},
	}}
	l := newLedger()
	l.versions = map[int]bool{1: true}
	answers := []proto.AuthResponse{
		{Accepted: true, UserID: 1, ModelVersion: 1}, // right user
		{Accepted: true, UserID: 3, ModelVersion: 1}, // wrong user: not an accept
		{Accepted: false, ModelVersion: 1},
		{Accepted: false, ModelVersion: 1}, // impostor rejected
		{Accepted: true, UserID: 2, ModelVersion: 1},
	}
	for i := range answers {
		if err := l.check(i, &answers[i]); err != nil {
			t.Fatal(err)
		}
	}
	accept, reject := decisions(in, l)
	if accept != (ratio{hits: 1, base: 3}) || reject != (ratio{hits: 1, base: 2}) {
		t.Errorf("accept %+v reject %+v, want 1/3 and 1/2", accept, reject)
	}
	if !math.IsNaN((ratio{}).value()) {
		t.Error("a ratio over an empty base should be NaN")
	}

	// A later answer that differs is a mismatch; an unknown model version
	// is refused.
	if err := l.check(0, &proto.AuthResponse{Accepted: false, ModelVersion: 1}); err == nil || l.mismatch != 1 {
		t.Errorf("changed decision not flagged: %v, mismatches %d", err, l.mismatch)
	}
	if err := l.check(0, &answers[0]); err != nil {
		t.Errorf("repeated decision flagged: %v", err)
	}
	if err := l.check(0, &proto.AuthResponse{Accepted: true, UserID: 1, ModelVersion: 2}); err == nil {
		t.Error("answer from an unknown model version accepted")
	}
}

func TestGaps(t *testing.T) {
	const rate, m = 2.0, 21
	span := func(seed int64) ([]float64, float64) {
		g := gaps(rate, m, rand.New(rand.NewSource(seed)))
		var sum float64
		for _, x := range g {
			if x < 0 {
				t.Fatalf("negative gap %v", x)
			}
			sum += x
		}
		return g, sum
	}
	g1, s1 := span(1)
	g2, s2 := span(2)
	if len(g1) != m {
		t.Fatalf("got %d gaps, want %d", len(g1), m)
	}
	// Stratified gaps: every seed's schedule spans about m/rate.
	for _, s := range []float64{s1, s2} {
		if math.Abs(s-m/rate)/(m/rate) > 0.15 {
			t.Errorf("schedule spans %.2f s, want about %.1f s", s, m/rate)
		}
	}
	if g, _ := span(1); g[0] != g1[0] || g[m-1] != g1[m-1] {
		t.Error("one seed gave two schedules")
	}
	if g1[0] == g2[0] && g1[1] == g2[1] {
		t.Error("two seeds gave the same schedule")
	}
}

func TestRoundsSplitJobs(t *testing.T) {
	jobs := repeat([]int{3, 1, 2}, 3)
	if len(jobs) != 9 || jobs[3] != 3 || jobs[8] != 2 {
		t.Fatalf("repeat = %v", jobs)
	}
	var joined []int
	for r := 0; r < rounds; r++ {
		joined = append(joined, part(jobs, r, rounds)...)
	}
	if len(joined) != len(jobs) {
		t.Fatalf("rounds cover %d of %d jobs", len(joined), len(jobs))
	}
	for k := range jobs {
		if joined[k] != jobs[k] {
			t.Fatalf("rounds reorder jobs: %v", joined)
		}
	}
	c := config{seconds: 30}
	if c.passes(2) != 2 || (config{seconds: 1}).passes(2) != 1 || (config{seconds: 60}).passes(2) != 4 {
		t.Error("pass counts do not scale with --seconds")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add(spanRequest, 0, -1, 100)
	tr.add(spanEncode, 0, root, 20)
	d := tr.add(spanDaemon, 0, root, 70)
	tr.add(spanDecode, 0, d, 30)
	tr.add(stagePrefix+"imaging", 0, d, 25)
	tr.add(stagePrefix+"features", 0, d, 5)
	tr.add(stagePrefix+"features", 0, d, 5)
	self, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{spanRequest: 10, spanEncode: 20, spanDaemon: 5, spanDecode: 30, "core.imaging": 25, "core.features": 10}
	for name, v := range want {
		if self[0][name] != v {
			t.Errorf("self[%s] = %v, want %v", name, self[0][name], v)
		}
	}

	orphan := &tracer{}
	r0 := orphan.add(spanRequest, 0, -1, 100)
	orphan.add(spanRequest, 1, -1, 100)
	orphan.add(spanEncode, 1, r0, 10)
	if _, err := orphan.selfTimes(); err == nil || !strings.Contains(err.Error(), "outside its request") {
		t.Errorf("span parented across requests accepted: %v", err)
	}
	rootless := &tracer{}
	rootless.add(spanRequest, 0, -1, 100)
	rootless.spans = append(rootless.spans, span{name: spanEncode, req: 2, id: 1, parent: 0, dur: 1})
	if _, err := rootless.selfTimes(); err == nil {
		t.Error("span of a rootless request accepted")
	}
}
