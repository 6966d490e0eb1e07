// Drain handoff pipeline: when a shard is drained, its users' state must
// move before the shard may be removed — the ring reassigns only the
// keyspace, never the enrollments living on the shard, so removal without
// a handoff silently loses every user it holds. The pipeline runs in the
// background under the router's lifetime context: scan the draining
// shard's user list, flush-export each user's state, import it into the
// user's post-removal ring successor, then block-retrain each successor
// so the moved users authenticate before the handoff reports complete.
// RemoveShard refuses (without force) until that point.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"echoimage/internal/proto"
	"echoimage/internal/retry"
)

// HandoffStatus is the lifecycle of one shard's drain handoff.
type HandoffStatus string

const (
	// HandoffRunning handoffs are still moving users.
	HandoffRunning HandoffStatus = "running"
	// HandoffComplete handoffs moved every user and converged every
	// successor's model; the shard may be removed without loss.
	HandoffComplete HandoffStatus = "complete"
	// HandoffFailed handoffs could not move every user; draining the
	// shard again retries, and removal requires force.
	HandoffFailed HandoffStatus = "failed"
)

// UserHandoff records one user's migration within a shard handoff.
type UserHandoff struct {
	User int `json:"user"`
	// Successor is the shard the user's state was handed to: its owner on
	// the post-removal ring (skipping draining/down members).
	Successor string `json:"successor"`
	// Images is the enrollment image count that moved.
	Images int    `json:"images"`
	Done   bool   `json:"done"`
	Error  string `json:"error,omitempty"`
}

// Handoff is the per-shard drain record surfaced on the admin rebalance
// endpoint.
type Handoff struct {
	Shard       string        `json:"shard"`
	Status      HandoffStatus `json:"status"`
	UsersTotal  int           `json:"users_total"`
	UsersDone   int           `json:"users_done"`
	UsersFailed int           `json:"users_failed"`
	Users       []UserHandoff `json:"users,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// handoffRounds bounds the scan→move loop. One round suffices when the
// membership is quiet; the re-scan catches users that appeared on the
// draining shard after the first scan (e.g. a concurrent drain handing
// off into this shard before it was marked draining).
const handoffRounds = 3

// DefaultHandoffTrainTimeout bounds the blocking retrain issued to each
// successor at the end of a handoff. Training is minutes-scale at large
// enrollments, far beyond the interactive upstream timeout.
const DefaultHandoffTrainTimeout = 5 * time.Minute

// startHandoff launches the drain pipeline for a shard, once: a running
// or completed handoff is left alone (drain is idempotent), a failed one
// restarts from scratch (moves already made are re-verified as idempotent
// imports).
func (r *Router) startHandoff(id string) {
	r.hoMu.Lock()
	if h := r.handoffs[id]; h != nil && h.Status != HandoffFailed {
		r.hoMu.Unlock()
		return
	}
	h := &Handoff{Shard: id, Status: HandoffRunning}
	r.handoffs[id] = h
	r.hoMu.Unlock()
	r.hoWg.Add(1)
	go r.runHandoff(id, h)
}

// runHandoff stops when r.lifeCtx is cancelled (every pipeline round
// trip threads it), and Close awaits the hoWg registration below.
func (r *Router) runHandoff(id string, h *Handoff) {
	defer r.hoWg.Done()
	r.met.handoffsActive.Inc()
	defer r.met.handoffsActive.Dec()
	err := r.handoffShard(r.lifeCtx, id, h)
	r.hoMu.Lock()
	if err != nil {
		h.Status = HandoffFailed
		h.Error = err.Error()
	} else {
		h.Status = HandoffComplete
		h.Error = ""
	}
	done, total := h.UsersDone, h.UsersTotal
	r.hoMu.Unlock()
	if err != nil {
		r.logf("cluster: shard %s handoff failed after %d/%d users: %v", id, done, total, err)
		return
	}
	r.logf("cluster: shard %s handoff complete (%d users)", id, done)
}

// handoffShard moves every user off the draining shard. It returns nil
// only when every discovered user was exported, imported into its
// successor, and every touched successor finished a blocking retrain.
func (r *Router) handoffShard(ctx context.Context, id string, h *Handoff) error {
	recIdx := make(map[int]int) // user → index into h.Users
	moved := make(map[int]bool) // users fully imported
	successors := make(map[string]bool)
	for round := 0; round < handoffRounds; round++ {
		src, ok := r.table.Get(id)
		if !ok {
			return fmt.Errorf("cluster: shard %q left membership mid-handoff", id)
		}
		users, err := r.scanUsers(ctx, &src, round)
		if err != nil {
			return fmt.Errorf("cluster: scan draining shard %s: %w", id, err)
		}
		var pending []int
		for _, u := range users {
			if !moved[u] {
				pending = append(pending, u)
			}
		}
		if len(pending) == 0 {
			break
		}
		post := BuildRing(without(r.table.IDs(), id), r.opts.Vnodes)
		if post.Shards() == 0 {
			return fmt.Errorf("cluster: shard %s holds %d users but no successor shards remain", id, len(pending))
		}
		for _, user := range pending {
			succID, serr := r.successorFor(post, user)
			if serr != nil {
				r.met.handoffFailures.Inc()
				r.recordUser(h, recIdx, user, "", 0, serr)
				continue
			}
			images, merr := r.moveUser(ctx, &src, user, succID)
			if merr != nil {
				r.met.handoffFailures.Inc()
				r.recordUser(h, recIdx, user, succID, 0, merr)
				continue
			}
			moved[user] = true
			successors[succID] = true
			r.met.handoffUsers.Inc()
			r.recordUser(h, recIdx, user, succID, images, nil)
		}
	}
	// Converge every successor's model before declaring completion, so a
	// handed-off user authenticates the moment removal is allowed.
	var errs []error
	for _, succID := range sortedKeys(successors) {
		if err := r.retrainShard(ctx, succID); err != nil {
			errs = append(errs, fmt.Errorf("cluster: retrain successor %s: %w", succID, err))
		}
	}
	r.hoMu.Lock()
	for _, rec := range h.Users {
		if !rec.Done {
			errs = append(errs, fmt.Errorf("cluster: user %d → %s: %s", rec.User, rec.Successor, rec.Error))
		}
	}
	r.hoMu.Unlock()
	return errors.Join(errs...)
}

// recordUser upserts one user's migration record and maintains the
// handoff's progress counters.
func (r *Router) recordUser(h *Handoff, recIdx map[int]int, user int, succ string, images int, err error) {
	r.hoMu.Lock()
	defer r.hoMu.Unlock()
	i, ok := recIdx[user]
	if !ok {
		i = len(h.Users)
		recIdx[user] = i
		h.Users = append(h.Users, UserHandoff{User: user})
		h.UsersTotal++
	}
	rec := &h.Users[i]
	wasFailed := rec.Error != "" && !rec.Done
	if succ != "" {
		rec.Successor = succ
	}
	if err != nil {
		rec.Error = err.Error()
		if !wasFailed {
			h.UsersFailed++
		}
		return
	}
	rec.Done = true
	rec.Error = ""
	rec.Images = images
	h.UsersDone++
	if wasFailed {
		h.UsersFailed--
	}
}

// successorFor picks the shard that must receive a user when removing the
// draining shard: the user's owner on the post-removal ring, unless that
// owner is itself draining or down, in which case the next active
// candidate clockwise takes it — mirroring forwardUser's new-capture skip
// rules so a concurrent drain cannot swallow a handoff.
func (r *Router) successorFor(post *Ring, user int) (string, error) {
	for _, id := range post.Candidates(user, post.Shards()) {
		s, ok := r.table.Get(id)
		if !ok {
			continue
		}
		if s.State() == StateActive {
			return id, nil
		}
	}
	return "", fmt.Errorf("no active successor shard for user %d", user)
}

// scanUsers asks the draining shard which users it holds.
func (r *Router) scanUsers(ctx context.Context, src *Shard, round int) ([]int, error) {
	env, err := proto.NewEnvelope(proto.TypeStatusRequest, fmt.Sprintf("ho-%s-scan-%d", src.ID, round), nil)
	if err != nil {
		return nil, err
	}
	out, err := r.handoffCall(ctx, src, env, r.opts.UpstreamTimeout)
	if err != nil {
		return nil, err
	}
	var st proto.StatusResponse
	if err := proto.DecodeBody(out, &st); err != nil {
		return nil, err
	}
	return st.Users, nil
}

// moveUser streams one user's state from the draining shard to its
// successor: flush-export on the source (durable on the source's state
// directory before the blob crosses the wire), then import on the
// successor. Both legs retry under the router's failover policy; imports
// are idempotent on the daemon, so a retried delivery cannot double-count.
func (r *Router) moveUser(ctx context.Context, src *Shard, user int, succID string) (int, error) {
	env, err := proto.NewEnvelope(proto.TypeHandoffRequest,
		fmt.Sprintf("ho-%s-u%d-export", src.ID, user),
		proto.HandoffRequest{UserID: user, Export: true})
	if err != nil {
		return 0, err
	}
	env.User = user
	out, err := r.handoffCall(ctx, src, env, r.opts.UpstreamTimeout)
	if err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	var exp proto.HandoffResponse
	if err := proto.DecodeBody(out, &exp); err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	if len(exp.State) == 0 {
		return 0, fmt.Errorf("export of user %d returned no state", user)
	}
	succ, ok := r.table.Get(succID)
	if !ok {
		return 0, fmt.Errorf("successor %q left membership", succID)
	}
	env, err = proto.NewEnvelope(proto.TypeHandoffRequest,
		fmt.Sprintf("ho-%s-u%d-import", src.ID, user),
		proto.HandoffRequest{UserID: user, State: exp.State})
	if err != nil {
		return 0, err
	}
	env.User = user
	out, err = r.handoffCall(ctx, &succ, env, r.opts.UpstreamTimeout)
	if err != nil {
		return 0, fmt.Errorf("import to %s: %w", succID, err)
	}
	var imp proto.HandoffResponse
	if err := proto.DecodeBody(out, &imp); err != nil {
		return 0, fmt.Errorf("import to %s: %w", succID, err)
	}
	return exp.Images, nil
}

// retrainShard issues a blocking retrain to one shard.
func (r *Router) retrainShard(ctx context.Context, id string) error {
	shard, ok := r.table.Get(id)
	if !ok {
		return fmt.Errorf("shard %q left membership", id)
	}
	env, err := proto.NewEnvelope(proto.TypeRetrainRequest,
		fmt.Sprintf("ho-retrain-%s", id), proto.RetrainRequest{Wait: true})
	if err != nil {
		return err
	}
	_, err = r.handoffCall(ctx, &shard, env, DefaultHandoffTrainTimeout)
	return err
}

// handoffCall is one pipeline round trip with the router's retry policy:
// transport failures and retryable refusals are retried against the same
// shard (there is no failover target — handoffs are addressed to a
// specific peer); in-band errors surface with their stable code.
func (r *Router) handoffCall(ctx context.Context, shard *Shard, env *proto.Envelope, timeout time.Duration) (*proto.Envelope, error) {
	var resp *proto.Envelope
	err := retry.Do(ctx, r.opts.Retry, retryableErr, func() error {
		out, rerr := r.roundTrip(ctx, shard, env, timeout)
		if rerr != nil {
			return rerr
		}
		if perr := proto.ReplyError(out); perr != nil {
			return coded(proto.ErrorCode(perr), fmt.Errorf("shard %s: %w", shard.ID, perr))
		}
		resp = out
		return nil
	}, func(n int, err error, d time.Duration) {
		r.logf("cluster: handoff call to shard %s failed (%v); retry %d in %v", shard.ID, err, n, d)
	})
	return resp, err
}

// Handoffs snapshots every drain handoff record (running, complete and
// failed, including shards already removed), sorted by shard ID.
func (r *Router) Handoffs() []Handoff {
	r.hoMu.Lock()
	defer r.hoMu.Unlock()
	out := make([]Handoff, 0, len(r.handoffs))
	for _, h := range r.handoffs {
		c := *h
		c.Users = append([]UserHandoff(nil), h.Users...)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// RebalanceShard is one row of the admin rebalance report.
type RebalanceShard struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// KeyspaceShare is the exact fraction of the hash circle the shard
	// owns on the current ring (from vnode arc lengths, not traffic).
	KeyspaceShare float64 `json:"keyspace_share"`
	// EnrolledUsers is how many users the shard's registry holds right
	// now (0 with Unreachable set when the shard could not be asked).
	EnrolledUsers int `json:"enrolled_users"`
	// OwnedUsers is how many of the cluster's currently known users the
	// ring maps to this shard — the owned-key count a drain must move.
	OwnedUsers  int  `json:"owned_users"`
	Unreachable bool `json:"unreachable,omitempty"`
}

// RebalanceReport is the admin surface's per-shard ownership and handoff
// progress view.
type RebalanceReport struct {
	Shards   []RebalanceShard `json:"shards"`
	Handoffs []Handoff        `json:"handoffs"`
}

// Rebalance builds the report: ring keyspace shares, per-shard enrolled
// users (live status probe of each non-down member), ring owner counts
// over the union of known users, and every handoff record.
func (r *Router) Rebalance(ctx context.Context) RebalanceReport {
	shards := r.table.Snapshot()
	ring := r.ring.Load()
	report := RebalanceReport{Handoffs: r.Handoffs()}
	enrolled := make(map[string]int, len(shards))
	userSet := make(map[int]bool)
	for i := range shards {
		s := shards[i]
		if s.State() == StateDown {
			continue
		}
		env, err := proto.NewEnvelope(proto.TypeStatusRequest, "rebalance-"+s.ID, nil)
		if err != nil {
			continue
		}
		out, err := r.roundTrip(ctx, &s, env, r.opts.UpstreamTimeout)
		if err != nil || out.Type == proto.TypeError {
			continue
		}
		var st proto.StatusResponse
		if err := proto.DecodeBody(out, &st); err != nil {
			continue
		}
		enrolled[s.ID] = len(st.Users)
		for _, u := range st.Users {
			userSet[u] = true
		}
	}
	owned := make(map[string]int, len(shards))
	for u := range userSet {
		owned[ring.Owner(u)]++
	}
	fractions := ring.OwnedFractions()
	for _, s := range shards {
		row := RebalanceShard{
			ID:            s.ID,
			State:         s.State(),
			KeyspaceShare: fractions[s.ID],
			OwnedUsers:    owned[s.ID],
		}
		if n, ok := enrolled[s.ID]; ok {
			row.EnrolledUsers = n
		} else {
			row.Unreachable = true
		}
		report.Shards = append(report.Shards, row)
	}
	return report
}

// without returns ids minus id, preserving order.
func without(ids []string, id string) []string {
	out := make([]string, 0, len(ids))
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
