// Command echoimage-loadgen drives an EchoImage serving tier — a single
// echoimaged or an echoimage-router cluster — with an open-loop
// authentication workload: arrivals follow a Poisson process at a fixed
// rate, independent of response times, so a saturated server faces
// mounting concurrency exactly as it would from a real client
// population rather than a lockstep closed loop that politely waits.
// Simulated clients replay pre-rendered captures of roster subjects
// (the acoustic simulation runs once per user at startup, not per
// request), each request carrying the user routing hint the router
// shards by.
//
// It prints p50/p99/p999 latency, completed throughput, shed rate and
// per-code error counts:
//
//	echoimage-loadgen -addr 127.0.0.1:7464 -enroll -users 4 -rate 50 -duration 10s
//
// With -max-p99, -max-nonretryable and -verify the command itself asserts
// service-level outcomes and exits non-zero on violation, which is what
// `make cluster-smoke` relies on. Speed claims are measured with the
// .perfbench harness, not with this command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"echoimage"
	"echoimage/internal/proto"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "echoimage-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7464", "router or daemon address")
	users := flag.Int("users", 4, "distinct roster subjects to replay (1-20)")
	rate := flag.Float64("rate", 20, "mean arrival rate, requests/second (Poisson)")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate arrivals")
	beeps := flag.Int("beeps", 4, "probe chirps per capture (fewer = cheaper request)")
	distance := flag.Float64("distance", 0.7, "user-array distance, meters")
	timeout := flag.Duration("timeout", 15*time.Second, "per-request deadline")
	maxInflight := flag.Int("max-inflight", 1024, "open-loop concurrency cap; arrivals beyond it are counted as local overflow, not sent")
	seed := flag.Int64("seed", 1, "arrival-process and capture-noise seed")
	enroll := flag.Bool("enroll", false, "enroll every user and retrain synchronously before generating load")
	enrollImages := flag.Int("enroll-images", 2, "captures enrolled per user with -enroll")
	maxP99 := flag.Duration("max-p99", 0, "exit non-zero when auth p99 exceeds this (0 = no assertion)")
	maxNonRetryable := flag.Int("max-nonretryable", -1, "exit non-zero when non-retryable errors exceed this (-1 = no assertion)")
	verify := flag.Bool("verify", false, "after the load phase, authenticate every user once and exit non-zero unless each is accepted as themselves (zero-lost-user assertion; -duration 0 makes this a pure verify run)")
	verifyRetries := flag.Int("verify-retries", 10, "per-user attempts for -verify, backing off between them (a shard may still be converging after a handoff)")
	flag.Parse()
	if *users < 1 || *users > len(echoimage.Roster()) {
		return fmt.Errorf("-users %d outside roster 1-%d", *users, len(echoimage.Roster()))
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive")
	}

	// Render each user's capture once; the load loop replays the
	// pre-marshaled body with only the envelope varying.
	fmt.Fprintf(os.Stderr, "rendering %d captures (%d beeps each)...\n", *users, *beeps)
	authBodies := make([][]byte, *users+1)
	wires := make([]proto.CaptureWire, *users+1)
	for u := 1; u <= *users; u++ {
		cap, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
			UserID: u, DistanceM: *distance, Beeps: *beeps, Session: 1, Seed: *seed,
		})
		if err != nil {
			return fmt.Errorf("simulate user %d: %w", u, err)
		}
		wires[u] = proto.CaptureWire{Beeps: cap.Beeps, SampleRate: cap.SampleRate, NoiseOnly: noiseOnly, Reference: cap.Reference}
		raw, err := json.Marshal(proto.AuthRequest{Capture: wires[u]})
		if err != nil {
			return err
		}
		authBodies[u] = raw
	}

	// Concurrency, not a fixed client count, sets the number of sockets,
	// matching the open-loop model; at most -max-inflight of them are in
	// use at once, so none beyond that needs to sit idle.
	cl := &client{Pool: proto.NewPool(*addr, *timeout, *maxInflight), timeout: *timeout}
	defer cl.CloseAll()

	if *enroll {
		if err := enrollAll(cl, *users, *enrollImages, *distance, *beeps, *seed); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "open-loop: %.0f req/s for %v against %s (%d users)\n", *rate, *duration, *addr, *users)
	var (
		mu        sync.Mutex
		latencies []int64
		codes     = map[string]int64{}
		transport int64
		accepted  int64
		rejected  int64
	)
	var inflight atomic.Int64
	var overflow int64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	next := start
	var reqSeq atomic.Int64
	for time.Since(start) < *duration {
		// Exponential inter-arrival times make the arrival process
		// Poisson; the schedule never waits for responses.
		next = next.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() >= int64(*maxInflight) {
			overflow++
			continue
		}
		user := 1 + rng.Intn(*users)
		inflight.Add(1)
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			defer inflight.Add(-1)
			t0 := time.Now()
			resp, err := cl.roundTrip(proto.TypeAuthRequest, user,
				fmt.Sprintf("lg-%d-%d", os.Getpid(), reqSeq.Add(1)), authBodies[user])
			elapsed := time.Since(t0).Nanoseconds()
			mu.Lock()
			defer mu.Unlock()
			var perr *proto.Error
			switch {
			case errors.As(err, &perr):
				code := perr.Code
				if code == "" {
					code = "undecodable"
				}
				codes[code]++
			case err != nil:
				transport++
			default:
				latencies = append(latencies, elapsed)
				var a proto.AuthResponse
				if derr := proto.DecodeBody(resp, &a); derr == nil && a.Accepted {
					accepted++
				} else {
					rejected++
				}
			}
		}(user)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Tally.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	completed := int64(len(latencies))
	var shed, retryableErrs, nonRetryable int64
	for code, n := range codes {
		if code == proto.CodeOverloaded {
			shed += n
		}
		if proto.RetryableCode(code) {
			retryableErrs += n
		} else {
			nonRetryable += n
		}
	}
	// Transport failures count as retryable for the assertion: the
	// daemon contract says a dropped connection is retry-worthy.
	throughput := float64(completed) / elapsed.Seconds()
	fmt.Printf("completed %d in %v (%.1f/s), accepted %d, rejected %d\n", completed, elapsed.Round(time.Millisecond), throughput, accepted, rejected)
	fmt.Printf("latency p50 %v  p99 %v  p999 %v\n",
		time.Duration(percentile(latencies, 0.50)),
		time.Duration(percentile(latencies, 0.99)),
		time.Duration(percentile(latencies, 0.999)))
	fmt.Printf("errors: shed %d, retryable %d, non-retryable %d, transport %d, local overflow %d\n",
		shed, retryableErrs, nonRetryable, transport, overflow)
	for code, n := range codes {
		fmt.Printf("  code %-14s %d\n", code, n)
	}

	if *maxNonRetryable >= 0 && nonRetryable > int64(*maxNonRetryable) {
		return fmt.Errorf("%d non-retryable errors (max %d)", nonRetryable, *maxNonRetryable)
	}
	if *maxP99 > 0 && completed > 0 && time.Duration(percentile(latencies, 0.99)) > *maxP99 {
		return fmt.Errorf("auth p99 %v exceeds %v", time.Duration(percentile(latencies, 0.99)), *maxP99)
	}
	if completed == 0 && *duration > 0 {
		return fmt.Errorf("no requests completed")
	}
	if *verify {
		if err := verifyAll(cl, *users, authBodies, *verifyRetries); err != nil {
			return err
		}
	}
	return nil
}

// verifyAll asserts zero lost users: every replayed user must
// authenticate as themselves. Each user gets up to retries attempts with
// backoff — after a shard handoff the successor may still be retraining,
// which surfaces as a retryable refusal or a rejection until the model
// converges. A user that never authenticates is reported as lost.
func verifyAll(cl *client, users int, authBodies [][]byte, retries int) error {
	fmt.Fprintf(os.Stderr, "verifying %d users authenticate...\n", users)
	if retries < 1 {
		retries = 1
	}
	var lost []int
	for u := 1; u <= users; u++ {
		ok := false
		var last string
		for attempt := 0; attempt < retries && !ok; attempt++ {
			if attempt > 0 {
				time.Sleep(500 * time.Millisecond)
			}
			resp, err := cl.roundTrip(proto.TypeAuthRequest, u,
				fmt.Sprintf("lg-verify-%d-%d", u, attempt), authBodies[u])
			if err != nil {
				last = err.Error()
				continue
			}
			var a proto.AuthResponse
			if derr := proto.DecodeBody(resp, &a); derr != nil {
				last = derr.Error()
				continue
			}
			if a.Accepted && a.UserID == u {
				ok = true
			} else {
				last = fmt.Sprintf("rejected (accepted=%v id=%d)", a.Accepted, a.UserID)
			}
		}
		if !ok {
			lost = append(lost, u)
			fmt.Fprintf(os.Stderr, "verify: user %d LOST after %d attempts: %s\n", u, retries, last)
		} else {
			fmt.Fprintf(os.Stderr, "verify: user %d ok\n", u)
		}
	}
	if len(lost) > 0 {
		return fmt.Errorf("verify: %d of %d users lost: %v", len(lost), users, lost)
	}
	fmt.Printf("verify: all %d users authenticate\n", users)
	return nil
}

// enrollAll enrolls every replayed user (sessions 1..images) and then
// retrains synchronously, so the load phase authenticates against a
// trained model. The retrain is issued once per user WITH the routing
// hint, not as an unhinted fan-out: through a router, a fan-out retrain
// would also reach shards that own none of the enrolled users, and a
// daemon with empty enrollment pools correctly refuses to train.
func enrollAll(cl *client, users, images int, distance float64, beeps int, seed int64) error {
	fmt.Fprintf(os.Stderr, "enrolling %d users x %d captures...\n", users, images)
	seq := 0
	for u := 1; u <= users; u++ {
		for s := 1; s <= images; s++ {
			cap, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
				UserID: u, DistanceM: distance, Beeps: beeps, Session: s, Seed: seed + int64(s),
			})
			if err != nil {
				return fmt.Errorf("simulate enroll user %d session %d: %w", u, s, err)
			}
			body, err := json.Marshal(proto.EnrollRequest{
				UserID: u,
				Capture: proto.CaptureWire{
					Beeps: cap.Beeps, SampleRate: cap.SampleRate,
					NoiseOnly: noiseOnly, Reference: cap.Reference,
				},
			})
			if err != nil {
				return err
			}
			seq++
			if _, err := cl.roundTrip(proto.TypeEnrollRequest, u, fmt.Sprintf("lg-enroll-%d", seq), body); err != nil {
				return fmt.Errorf("enroll user %d: %w", u, err)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "retraining (synchronous, per user)...")
	body, err := json.Marshal(proto.RetrainRequest{Wait: true})
	if err != nil {
		return err
	}
	for u := 1; u <= users; u++ {
		if _, err := cl.roundTrip(proto.TypeRetrainRequest, u, fmt.Sprintf("lg-retrain-%d", u), body); err != nil {
			return fmt.Errorf("retrain (user %d's shard): %w", u, err)
		}
	}
	return nil
}

// client sends requests over pooled connections to the target.
type client struct {
	*proto.Pool
	timeout time.Duration
}

// roundTrip performs one framed request/response exchange with the
// routing hint set. A transport failure discards the connection; an error
// reply keeps it and is returned as a *proto.Error.
func (c *client) roundTrip(msgType proto.MsgType, user int, reqID string, body []byte) (*proto.Envelope, error) {
	conn, _, err := c.Get(context.Background())
	if err != nil {
		return nil, err
	}
	env := &proto.Envelope{Version: proto.Version, Type: msgType, RequestID: reqID, User: user, Body: body}
	if c.timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.timeout))
	}
	resp, err := conn.RoundTrip(env)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.Put(conn)
	return resp, proto.ReplyError(resp)
}

// percentile returns the q-th percentile of sorted nanosecond samples
// (0 when empty).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
