// Command echoimage-client talks to the echoimaged daemon: it simulates a
// roster subject's capture (the hardware stand-in) and submits it for
// enrollment or authentication. Every request carries the protocol
// version and a request ID, and the daemon's echo is verified
// (proto.Conn.RoundTrip); a deadline on each round trip keeps a hung
// daemon from wedging the client forever. Requests refused with a retryable error code
// (unavailable, overloaded) are retried on a fresh connection with
// exponential backoff and jitter, so a briefly saturated or restarting
// daemon is ridden out instead of surfaced as a failure.
//
// Usage:
//
//	echoimage-client -addr 127.0.0.1:7465 enroll -user 3 -distance 0.7 -retrain
//	echoimage-client -addr 127.0.0.1:7465 auth -user 3 -distance 0.7 -session 3
//	echoimage-client -addr 127.0.0.1:7465 retrain -wait
//	echoimage-client -addr 127.0.0.1:7465 info
//	echoimage-client -addr 127.0.0.1:7465 status
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"echoimage"
	"echoimage/internal/proto"
	"echoimage/internal/retry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "echoimage-client:", err)
		os.Exit(1)
	}
}

// client wraps the framed connection with per-round-trip deadlines and
// request correlation.
type client struct {
	conn    net.Conn
	pc      *proto.Conn
	timeout time.Duration
	verbose bool
	// user, when non-zero, stamps each request envelope's routing hint
	// so echoimage-router can pick the owning shard without decoding the
	// capture body. A directly-addressed daemon ignores it.
	user int
	seq  int
}

// call performs one request/response round trip under the deadline and
// validates the response: daemon errors surface as *proto.Error, and the
// body is decoded into `into`.
func (c *client) call(msgType proto.MsgType, body any, want proto.MsgType, into any) error {
	c.seq++
	reqID := fmt.Sprintf("cli-%d-%d", os.Getpid(), c.seq)
	env, err := proto.NewEnvelope(msgType, reqID, body)
	if err != nil {
		return err
	}
	env.User = c.user
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	start := time.Now()
	resp, err := c.pc.RoundTrip(env)
	if c.verbose {
		fmt.Fprintf(os.Stderr, "%s: round trip %v\n", msgType, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return fmt.Errorf("awaiting %s: %w", want, err)
	}
	if err := proto.ReplyError(resp); err != nil {
		return err
	}
	if resp.Type != want {
		return fmt.Errorf("unexpected response %q (want %q)", resp.Type, want)
	}
	if into == nil {
		return nil
	}
	return proto.DecodeBody(resp, into)
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7465", "daemon address")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request deadline; 0 waits forever")
	verbose := flag.Bool("v", false, "print per-request round-trip latency to stderr")
	retries := flag.Int("retries", 4, "retry attempts after a retryable daemon refusal (unavailable, overloaded)")
	retryBase := flag.Duration("retry-base", 200*time.Millisecond, "first retry backoff; doubles per attempt up to 5s, plus jitter")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: echoimage-client [-addr host:port] [-timeout 2m] [-retries 4] enroll|auth|retrain|info|status [flags]")
	}
	cmd := flag.Arg(0)

	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	user := sub.Int("user", 1, "roster subject ID (1-20)")
	distance := sub.Float64("distance", 0.7, "user-array distance, meters")
	session := sub.Int("session", 1, "collection session (varies stance)")
	beeps := sub.Int("beeps", 12, "number of probe chirps")
	seed := sub.Int64("seed", 0, "noise realization seed")
	retrain := sub.Bool("retrain", false, "queue a background retrain after enrolling")
	wait := sub.Bool("wait", false, "block until the retrain completes (retrain command)")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		return err
	}

	// Each attempt gets a fresh connection: after a refusal the old one
	// may be mid-shutdown, and redialing also reaches a restarted daemon.
	// routeUser (0 for model-wide commands) becomes the envelope routing
	// hint for every attempt. Only a daemon refusal with a retryable code
	// (unavailable, overloaded) is retried; a transport failure carries
	// no code and is not.
	policy := retry.Policy{Attempts: *retries, Base: *retryBase, Cap: 5 * time.Second}
	retryable := func(err error) bool { return proto.RetryableCode(proto.ErrorCode(err)) }
	withClient := func(routeUser int, op func(c *client) error) error {
		dialTO := *timeout
		if dialTO <= 0 {
			dialTO = time.Minute
		}
		return retry.Do(context.Background(), policy, retryable, func() error {
			conn, derr := net.DialTimeout("tcp", *addr, dialTO)
			if derr != nil {
				return fmt.Errorf("dial %s: %w", *addr, derr)
			}
			defer conn.Close()
			return op(&client{conn: conn, pc: proto.NewConn(conn), timeout: *timeout, verbose: *verbose, user: routeUser})
		}, func(n int, err error, delay time.Duration) {
			fmt.Fprintf(os.Stderr, "echoimage-client: %v; retry %d/%d in %v\n",
				err, n, *retries, delay.Round(time.Millisecond))
		})
	}

	switch cmd {
	case "status":
		var resp proto.StatusResponse
		if err := withClient(0, func(c *client) error {
			return c.call(proto.TypeStatusRequest, nil, proto.TypeStatusResponse, &resp)
		}); err != nil {
			return err
		}
		degraded := ""
		if resp.Degraded {
			degraded = " [DEGRADED: view excludes unreachable shards]"
		}
		fmt.Printf("trained=%v model=v%d users=%v images=%d%s\n",
			resp.Trained, resp.ModelVersion, resp.Users, resp.TotalImages, degraded)
		return nil
	case "info":
		var resp proto.ModelInfoResponse
		if err := withClient(0, func(c *client) error {
			return c.call(proto.TypeModelInfoRequest, nil, proto.TypeModelInfoResponse, &resp)
		}); err != nil {
			return err
		}
		if !resp.Trained {
			fmt.Println("no trained model")
		} else {
			origin := "trained"
			if resp.Loaded {
				origin = "loaded from disk"
			}
			if resp.Extended {
				origin = "extended"
			}
			fmt.Printf("model v%d (%s): %d users, %d images, %d indexed vectors, trained in %d ms at %s\n",
				resp.ModelVersion, origin, resp.Users, resp.Images, resp.IndexSize, resp.TrainMillis, resp.TrainedAt)
		}
		if resp.Degraded {
			fmt.Println("DEGRADED: view excludes unreachable shards")
		}
		if resp.LastError != "" {
			fmt.Printf("last train error: %s\n", resp.LastError)
		}
		return nil
	case "retrain":
		// An explicit -user routes the retrain to the owning shard when
		// the address is an echoimage-router: the other shards hold no
		// enrollments for that user and a fanned-out retrain would fail
		// on every empty one. Without -user the retrain fans out
		// cluster-wide (and a plain daemon ignores the hint either way).
		hint := 0
		sub.Visit(func(f *flag.Flag) {
			if f.Name == "user" {
				hint = *user
			}
		})
		var resp proto.RetrainResponse
		if err := withClient(hint, func(c *client) error {
			return c.call(proto.TypeRetrainRequest, proto.RetrainRequest{Wait: *wait}, proto.TypeRetrainResponse, &resp)
		}); err != nil {
			return err
		}
		if resp.Queued {
			fmt.Printf("retrain queued (live model v%d keeps serving)\n", resp.ModelVersion)
		} else {
			fmt.Printf("retrained: model v%d live\n", resp.ModelVersion)
		}
		return nil
	case "enroll", "auth":
		cap, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
			UserID:    *user,
			DistanceM: *distance,
			Beeps:     *beeps,
			Session:   *session,
			Seed:      *seed,
		})
		if err != nil {
			return fmt.Errorf("simulate capture: %w", err)
		}
		wire := proto.CaptureWire{Beeps: cap.Beeps, SampleRate: cap.SampleRate, NoiseOnly: noiseOnly, Reference: cap.Reference}
		if cmd == "enroll" {
			var resp proto.EnrollResponse
			if err := withClient(*user, func(c *client) error {
				return c.call(proto.TypeEnrollRequest, proto.EnrollRequest{
					UserID: *user, Capture: wire, Retrain: *retrain,
				}, proto.TypeEnrollResponse, &resp)
			}); err != nil {
				return err
			}
			trained := "no retrain"
			if resp.RetrainQueued {
				trained = "retrain queued"
			}
			fmt.Printf("enrolled user %d: +%d images at %.2f m (%s, %d users, %d images total)\n",
				resp.UserID, resp.Images, resp.DistanceM, trained, resp.TotalUsers, resp.TotalImages)
			return nil
		}
		var resp proto.AuthResponse
		if err := withClient(*user, func(c *client) error {
			return c.call(proto.TypeAuthRequest, proto.AuthRequest{Capture: wire}, proto.TypeAuthResponse, &resp)
		}); err != nil {
			return err
		}
		verdict := "REJECTED (spoofer)"
		if resp.Accepted {
			verdict = fmt.Sprintf("ACCEPTED as user %d", resp.UserID)
		}
		fmt.Printf("%s (gate score %.3f, ranged %.2f m, %d images, model v%d)\n",
			verdict, resp.GateScore, resp.DistanceM, resp.Images, resp.ModelVersion)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
