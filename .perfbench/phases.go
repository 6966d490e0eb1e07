package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"echoimage/internal/proto"
)

// decision is what the system answered for one probe.
type decision struct {
	accepted bool
	user     int
}

// ledger counts operations per phase and holds each probe's reference
// decision: its first answer. Probes are only ever answered by the set-up
// models, so any later answer that differs is a failed operation.
type ledger struct {
	mu        sync.Mutex
	phases    []*phaseCount
	refs      map[int]decision // by probe
	mismatch  int
	versions  map[int]bool // the set-up models' versions
	errors    []string
	overload  int
	attempted int
}

type phaseCount struct {
	name                         string
	attempted, succeeded, failed int
}

func newLedger() *ledger { return &ledger{refs: make(map[int]decision)} }

// phase returns the counts of the named phase, adding it on first use.
func (l *ledger) phase(name string) *phaseCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		if p.name == name {
			return p
		}
	}
	p := &phaseCount{name: name}
	l.phases = append(l.phases, p)
	return p
}

// record counts one operation of phase p; err is its failure, if any.
func (l *ledger) record(p *phaseCount, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p.attempted++
	l.attempted++
	if isCode(err, proto.CodeOverloaded) {
		l.overload++
	}
	if err == nil {
		p.succeeded++
		return
	}
	p.failed++
	if len(l.errors) < 8 {
		l.errors = append(l.errors, fmt.Sprintf("%s: %v", p.name, err))
	}
}

// check compares an authentication answer with the probe's reference.
func (l *ledger) check(probe int, resp *proto.AuthResponse) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.versions[resp.ModelVersion] {
		return fmt.Errorf("probe %d answered by model version %d, not a set-up model", probe, resp.ModelVersion)
	}
	got := decision{accepted: resp.Accepted, user: resp.UserID}
	ref, ok := l.refs[probe]
	if !ok {
		l.refs[probe] = got
		return nil
	}
	if ref != got {
		l.mismatch++
		return fmt.Errorf("probe %d decision %+v differs from its reference %+v", probe, got, ref)
	}
	return nil
}

func (l *ledger) failed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, p := range l.phases {
		n += p.failed
	}
	return n
}

// authenticate sends probe i once on c and checks the answer.
func authenticate(c *client, in *inputs, i int, l *ledger) (*proto.AuthResponse, error) {
	p := &in.probes[i]
	var resp proto.AuthResponse
	if err := c.call(proto.TypeAuthRequest, p.subject, proto.AuthRequest{Capture: p.wire}, proto.TypeAuthResponse, &resp); err != nil {
		return nil, err
	}
	if resp.Images < 1 {
		return nil, fmt.Errorf("probe %d answered from %d images", i, resp.Images)
	}
	if err := l.check(i, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// soloPhase sends the jobs (probe indices) one at a time on one
// connection.
func soloPhase(addr string, in *inputs, l *ledger, jobs []int) (sample, error) {
	c, err := dial(addr, "solo")
	if err != nil {
		return nil, err
	}
	defer c.close()
	p := l.phase("solo")
	var lat sample
	for _, i := range jobs {
		t0 := time.Now()
		_, err := authenticate(c, in, i, l)
		if err == nil {
			lat.add(time.Since(t0))
		}
		l.record(p, err)
	}
	return lat, nil
}

// openLoop is the result of an open-loop phase.
type openLoop struct {
	lat      sample
	lateness time.Duration // the generator's worst delay past a due time
}

// gaps draws the m inter-arrival gaps of a Poisson schedule of rate/s, in
// seconds. They are Latin-hypercube samples: gap k is the exponential
// quantile of a uniform draw from its own stratum [k/m, (k+1)/m), and the
// seed shuffles their order. Each gap is still Exp(rate)-distributed, but
// every seed gets nearly the same set of gaps, so how bursty the schedule
// is does not vary from seed to seed; only where the bursts fall does.
func gaps(rate float64, m int, rng *rand.Rand) []float64 {
	g := make([]float64, m)
	for k := range g {
		u := (float64(k) + rng.Float64()) / float64(m)
		g[k] = -math.Log1p(-u) / rate
	}
	rng.Shuffle(m, func(i, j int) { g[i], g[j] = g[j], g[i] })
	return g
}

// loadedPhase sends jobs[k] after gaps[k] more seconds of schedule, on
// conns connections. Each request is timed from its due time, so a
// request that falls due while every connection is busy pays the wait.
func loadedPhase(addr string, in *inputs, l *ledger, jobs []int, gaps []float64, conns int) (*openLoop, error) {
	due := make([]time.Duration, len(jobs))
	var t float64
	for k := range due {
		t += gaps[k]
		due[k] = time.Duration(t * float64(time.Second))
	}
	clients, err := dialAll(addr, "loaded", conns)
	if err != nil {
		return nil, err
	}
	p := l.phase("loaded")
	res := &openLoop{}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer c.close()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(due) {
					return
				}
				at := start.Add(due[k])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
					late := time.Since(at)
					mu.Lock()
					if late > res.lateness {
						res.lateness = late
					}
					mu.Unlock()
				}
				_, err := authenticate(c, in, jobs[k], l)
				done := time.Since(at)
				mu.Lock()
				if err == nil {
					res.lat.add(done)
				}
				mu.Unlock()
				l.record(p, err)
			}
		}(c)
	}
	wg.Wait()
	return res, nil
}

func dialAll(addr, name string, n int) ([]*client, error) {
	clients := make([]*client, n)
	for k := range clients {
		c, err := dial(addr, fmt.Sprintf("%s%d", name, k))
		if err != nil {
			for _, c := range clients[:k] {
				c.close()
			}
			return nil, err
		}
		clients[k] = c
	}
	return clients, nil
}

// closedLoop is the result of a throughput phase.
type closedLoop struct {
	completed int
	elapsed   time.Duration
	cpuMillis float64 // server CPU spent during the phase
}

func (c *closedLoop) add(o *closedLoop) {
	c.completed += o.completed
	c.elapsed += o.elapsed
	c.cpuMillis += o.cpuMillis
}

// throughputPhase keeps one request in flight on each of conns
// connections until the jobs run out, and reads the servers' CPU time
// around it.
func throughputPhase(t *topology, in *inputs, l *ledger, jobs []int, conns int) (*closedLoop, error) {
	clients, err := dialAll(t.entry(), "tput", conns)
	if err != nil {
		return nil, err
	}
	p := l.phase("throughput")
	cpu0, err := t.cpuMillis()
	if err != nil {
		return nil, err
	}
	res := &closedLoop{}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer c.close()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(jobs) {
					return
				}
				_, err := authenticate(c, in, jobs[k], l)
				l.record(p, err)
				if err == nil {
					mu.Lock()
					res.completed++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	cpu1, err := t.cpuMillis()
	if err != nil {
		return nil, err
	}
	res.cpuMillis = cpu1 - cpu0
	return res, nil
}

// nproc is the load generator's connection and thread budget.
func nproc() int { return runtime.NumCPU() }
