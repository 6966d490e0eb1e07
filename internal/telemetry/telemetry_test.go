package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// many goroutines. Run under -race (make race) this is the lock-freedom
// proof; the totals check that no update is lost.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("echoimage_hammer_total", "")
	g := reg.Gauge("echoimage_hammer_gauge", "")
	h := reg.Histogram("echoimage_hammer_seconds", "", []float64{0.5, 1.5, 2.5})

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i % 3)) // 0, 1, 2 → one per bucket
				// Re-registration from a hot path must return the same
				// metric, not a fresh one.
				if reg.Counter("echoimage_hammer_total", "") != c {
					panic("counter identity lost")
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge %d, want 0", got)
	}
	hv := h.Value()
	if hv.Count != workers*perWorker {
		t.Errorf("histogram count %d, want %d", hv.Count, workers*perWorker)
	}
	// Each worker observed floor(5000/3)≈1667/1667/1666 of 0,1,2; the sum
	// must be exact because every sample is an integer.
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 3)
	}
	wantSum *= workers
	if hv.Sum != wantSum {
		t.Errorf("histogram sum %v, want %v", hv.Sum, wantSum)
	}
	third := uint64(workers * ((perWorker + 2) / 3)) // samples equal to 0
	if hv.Cumulative[0] != third {
		t.Errorf("bucket le=0.5 cumulative %d, want %d", hv.Cumulative[0], third)
	}
	if hv.Cumulative[len(hv.Cumulative)-1] != hv.Count {
		t.Error("last cumulative bucket != count")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket 0
	h.Observe(0.01)  // le=0.01 → bucket 0 (le is inclusive)
	h.Observe(0.05)  // bucket 1
	h.Observe(0.5)   // bucket 2
	h.Observe(7)     // +Inf
	hv := h.Value()
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if hv.Cumulative[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, hv.Cumulative[i], w)
		}
	}
	if math.Abs(hv.Sum-7.565) > 1e-12 {
		t.Errorf("sum %v", hv.Sum)
	}
}

func TestObserveDuration(t *testing.T) {
	h := newHistogram(DefBuckets)
	h.ObserveDuration(30 * time.Millisecond)
	hv := h.Value()
	if hv.Count != 1 || math.Abs(hv.Sum-0.03) > 1e-12 {
		t.Errorf("count %d sum %v", hv.Count, hv.Sum)
	}
}

// TestWritePrometheusGolden locks the exposition format byte for byte:
// family headers, label rendering and escaping, histogram expansion.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("echoimage_demo_requests_total", "Requests handled.", L("type", "auth")).Add(3)
	reg.Counter("echoimage_demo_requests_total", "Requests handled.", L("type", "enroll")).Add(1)
	reg.Gauge("echoimage_demo_inflight", "In-flight requests.").Set(2)
	reg.Counter("echoimage_demo_escapes_total", "", L("path", `a\b"c`)).Inc()
	h := reg.Histogram("echoimage_demo_seconds", "Latency.", []float64{0.25, 1})
	h.Observe(0.1)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP echoimage_demo_requests_total Requests handled.
# TYPE echoimage_demo_requests_total counter
echoimage_demo_requests_total{type="auth"} 3
echoimage_demo_requests_total{type="enroll"} 1
# HELP echoimage_demo_inflight In-flight requests.
# TYPE echoimage_demo_inflight gauge
echoimage_demo_inflight 2
# TYPE echoimage_demo_escapes_total counter
echoimage_demo_escapes_total{path="a\\b\"c"} 1
# HELP echoimage_demo_seconds Latency.
# TYPE echoimage_demo_seconds histogram
echoimage_demo_seconds_bucket{le="0.25"} 1
echoimage_demo_seconds_bucket{le="1"} 2
echoimage_demo_seconds_bucket{le="+Inf"} 3
echoimage_demo_seconds_sum 3.6
echoimage_demo_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("echoimage_c_total", "count", L("k", "v")).Add(5)
	reg.Gauge("echoimage_g", "gauge").Set(-2)
	reg.Histogram("echoimage_h_seconds", "hist", []float64{1}).Observe(0.5)

	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("%d families", len(snap))
	}
	if snap[0].Name != "echoimage_c_total" || snap[0].Kind != "counter" ||
		*snap[0].Metrics[0].Value != 5 || snap[0].Metrics[0].Labels["k"] != "v" {
		t.Errorf("counter snapshot %+v", snap[0])
	}
	if snap[1].Kind != "gauge" || *snap[1].Metrics[0].Value != -2 {
		t.Errorf("gauge snapshot %+v", snap[1])
	}
	hs := snap[2].Metrics[0]
	if snap[2].Kind != "histogram" || hs.Count != 1 || hs.Sum != 0.5 ||
		len(hs.Buckets) != 1 || hs.Buckets[0].Count != 1 {
		t.Errorf("histogram snapshot %+v", hs)
	}
}

// TestLabelSetRoutesUnlistedToOther checks that CounterSet and
// HistogramSet register exactly one series per listed value plus
// "other", that an unlisted value lands in "other", and that looking one
// up registers nothing new.
func TestLabelSetRoutesUnlistedToOther(t *testing.T) {
	reg := NewRegistry()
	cs := reg.CounterSet("echoimage_req_total", "requests", "type", "a", "b")
	hs := reg.HistogramSet("echoimage_req_seconds", "latency", "type", "a", "b")
	series := func() int {
		n := 0
		for _, f := range reg.Snapshot() {
			n += len(f.Metrics)
		}
		return n
	}
	if got := series(); got != 6 {
		t.Fatalf("%d series registered, want 6 (a, b, other per family)", got)
	}

	cs.With("a").Inc()
	cs.With("bogus").Inc()
	cs.With("").Inc()
	hs.With("b").Observe(0.5)
	hs.With("bogus").Observe(2)
	if got := series(); got != 6 {
		t.Errorf("%d series after unlisted lookups, want still 6", got)
	}
	if cs.With("a") != reg.Counter("echoimage_req_total", "", L("type", "a")) {
		t.Error(`CounterSet "a" is not the registry's series`)
	}
	if got := reg.Counter("echoimage_req_total", "", L("type", "other")).Value(); got != 2 {
		t.Errorf(`"other" counter %d, want 2`, got)
	}
	if got := cs.With("b").Value(); got != 0 {
		t.Errorf(`"b" counter %d, want 0`, got)
	}
	if got := reg.Histogram("echoimage_req_seconds", "", nil, L("type", "other")).Value().Count; got != 1 {
		t.Errorf(`"other" histogram count %d, want 1`, got)
	}
	if got := hs.With("b").Value().Count; got != 1 {
		t.Errorf(`"b" histogram count %d, want 1`, got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("echoimage_x", "")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind conflict")
		}
	}()
	reg.Gauge("echoimage_x", "")
}

// TestRegistryRefusesOutOfNamespaceName checks the series-name contract
// at registration: a name outside ^echoimage_[a-z0-9_]+$ panics for
// every kind, while a valid name registers and re-registers quietly.
func TestRegistryRefusesOutOfNamespaceName(t *testing.T) {
	register := map[string]func(*Registry, string){
		"Counter":      func(r *Registry, n string) { r.Counter(n, "") },
		"Gauge":        func(r *Registry, n string) { r.Gauge(n, "") },
		"Histogram":    func(r *Registry, n string) { r.Histogram(n, "", nil) },
		"CounterSet":   func(r *Registry, n string) { r.CounterSet(n, "", "k", "a") },
		"HistogramSet": func(r *Registry, n string) { r.HistogramSet(n, "", "k", "a") },
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for kind, reg := range register {
		for _, name := range []string{"bad-dashes", "Echoimage_upper_total", ""} {
			if !panics(func() { reg(NewRegistry(), name) }) {
				t.Errorf("%s(%q) registered without a panic", kind, name)
			}
		}
		r := NewRegistry()
		if panics(func() { reg(r, "echoimage_ok_total") }) {
			t.Errorf("%s(%q) panicked on a valid name", kind, "echoimage_ok_total")
		}
		if panics(func() { reg(r, "echoimage_ok_total") }) {
			t.Errorf("%s(%q) panicked on re-registration", kind, "echoimage_ok_total")
		}
	}
}

func TestTraceLog(t *testing.T) {
	tr := NewTrace("req-1", "authenticate")
	tr.RecordStage("preprocess", 2*time.Millisecond)
	tr.RecordStage("imaging", 5*time.Millisecond)
	rec := tr.Finish("")
	if rec.RequestID != "req-1" || rec.Type != "authenticate" || len(rec.Spans) != 2 {
		t.Fatalf("trace %+v", rec)
	}
	if rec.Spans[1].Stage != "imaging" || rec.Spans[1].DurMicros != 5000 {
		t.Errorf("span %+v", rec.Spans[1])
	}
	if rec.DurMicros < rec.Spans[1].StartMicros {
		t.Errorf("total %dµs precedes last span start %dµs", rec.DurMicros, rec.Spans[1].StartMicros)
	}

	l := NewTraceLog(3)
	for i := 0; i < 5; i++ {
		l.Add(TraceRecord{RequestID: string(rune('a' + i))})
	}
	got := l.Recent()
	if len(got) != 3 || got[0].RequestID != "e" || got[2].RequestID != "c" {
		t.Errorf("recent %+v", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.01)
		}
	})
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
