package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"echoimage"
	"echoimage/internal/proto"
)

// workload is one traffic mix.
type workload struct {
	name  string
	beeps int
	// shards is 0 for one echoimaged taking client traffic directly, or
	// the number of shard daemons behind one echoimage-router.
	shards int
	// rate is the loaded phase's Poisson arrival rate, requests/second,
	// about 40% of the workload's closed-loop throughput on a 2-core VM.
	rate float64
	// solo, loaded and throughput are each phase's passes over the probes
	// in a 30-second run; together they take about 30 s on a 2-core VM.
	solo, loaded, throughput int
}

var workloads = []workload{
	{name: "direct-12beep", beeps: 12, rate: 1.0, solo: 1, loaded: 1, throughput: 2},
	{name: "routed-4beep", beeps: 4, shards: 2, rate: 1.6, solo: 2, loaded: 2, throughput: 2},
}

// The subject split, the same for every workload: enrolled subjects are
// registered during set-up from sessions 1..sessions and probed with the
// next session, which should be accepted as them; impostors are probed
// once each and should be rejected; newcomers enroll only where no probe
// is answered afterwards.
const (
	enrolled  = 8
	sessions  = 2
	impostors = 6
	newcomers = 6
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// distanceM is where every simulated subject stands.
const distanceM = 0.7

// capture is one rendered recording of a subject's session.
type capture struct {
	subject, session int
	wire             proto.CaptureWire
}

// probe is an authentication input with its expected outcome.
type probe struct {
	capture
	enrolled bool // a held-out session of an enrolled subject
}

// corpusSeed fixes the rendered captures and the subject split. The
// captures are the benchmark's test corpus: with them fixed, the
// accept and reject counts are the same on every seed, so any change in
// them is a change in behaviour. The run's seed draws the traffic.
const corpusSeed = 1

// inputs is everything a run sends: a fixed corpus of captures, and the
// probe order drawn from the run's seed.
type inputs struct {
	enroll    []capture // set-up enrollment, subject-major
	probes    []probe   // held-out sessions first, then impostors
	newcomers []capture // first sessions of subjects enrolled for enroll_ready_ms
	order     []int     // seeded probe order for the load phases
}

// render splits the roster into disjoint enrolled, impostor and newcomer
// groups, renders every capture, and draws the probe order from seed.
func render(w workload, seed int64) (*inputs, error) {
	roster := len(echoimage.Roster())
	if need := enrolled + impostors + newcomers; need > roster {
		return nil, fmt.Errorf("%d subjects needed, the roster has %d", need, roster)
	}
	perm := rand.New(rand.NewSource(corpusSeed)).Perm(roster)
	subject := func(i int) int { return perm[i] + 1 }

	in := &inputs{}
	type job struct {
		dst              *proto.CaptureWire
		subject, session int
	}
	var jobs []job
	for i := 0; i < enrolled; i++ {
		for s := 1; s <= sessions; s++ {
			in.enroll = append(in.enroll, capture{subject: subject(i), session: s})
		}
	}
	for i := 0; i < enrolled; i++ {
		in.probes = append(in.probes, probe{capture: capture{subject: subject(i), session: sessions + 1}, enrolled: true})
	}
	for i := 0; i < impostors; i++ {
		in.probes = append(in.probes, probe{capture: capture{subject: subject(enrolled + i), session: 1}})
	}
	for i := 0; i < newcomers; i++ {
		in.newcomers = append(in.newcomers, capture{subject: subject(enrolled + impostors + i), session: 1})
	}
	for i := range in.enroll {
		jobs = append(jobs, job{&in.enroll[i].wire, in.enroll[i].subject, in.enroll[i].session})
	}
	for i := range in.probes {
		jobs = append(jobs, job{&in.probes[i].wire, in.probes[i].subject, in.probes[i].session})
	}
	for i := range in.newcomers {
		jobs = append(jobs, job{&in.newcomers[i].wire, in.newcomers[i].subject, in.newcomers[i].session})
	}
	in.order = rand.New(rand.NewSource(seed)).Perm(len(in.probes))

	// Rendering is the simulator's cost, not the system's: spread it over
	// the cores before any server starts.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	next := make(chan job)
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				wire, err := simulate(w.beeps, j.subject, j.session)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					continue
				}
				*j.dst = wire
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return in, nil
}

// simulate renders one session of a subject.
func simulate(beeps, subject, session int) (proto.CaptureWire, error) {
	c, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
		UserID: subject, DistanceM: distanceM, Beeps: beeps, Session: session,
		Seed: corpusSeed*1_000_003 + int64(subject*100+session),
	})
	if err != nil {
		return proto.CaptureWire{}, fmt.Errorf("simulate subject %d session %d: %w", subject, session, err)
	}
	return proto.CaptureWire{Beeps: c.Beeps, SampleRate: c.SampleRate, NoiseOnly: noiseOnly, Reference: c.Reference}, nil
}
