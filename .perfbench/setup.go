package main

import (
	"fmt"
	"time"

	"echoimage/internal/proto"
)

// warmups is how many probes of its own users each shard answers during
// set-up. Every subject stands at the same distance, so a few requests
// build the lazily planned transforms every later request needs.
const warmups = 2

// setUp starts the serving tier and makes it ready for timed traffic:
// every set-up enrollment is sent through the entry, each shard holding
// users gets one blocking retrain, and each shard answers warmups probes.
// It returns the tier and the time from the first process start to the
// end of the warm-up.
func setUp(bin string, w workload, in *inputs, l *ledger) (*topology, time.Duration, error) {
	start := time.Now()
	t, err := startTopology(bin, w.shards)
	if err != nil {
		return nil, 0, err
	}
	owned, err := enrollAll(t, w, in, l)
	if err == nil {
		err = warmUp(t, in, l, owned)
	}
	if err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// enrollAll enrolls the set-up captures through the entry and trains each
// shard once. It returns the users each shard owns.
func enrollAll(t *topology, w workload, in *inputs, l *ledger) ([][]int, error) {
	// Each connection enrolls whole subjects, sessions in order, so every
	// subject's images reach the registry in the same order on every run.
	p := l.phase("setup-enroll")
	err := parallel(nproc(), func(k int) error {
		c, err := dial(t.entry(), fmt.Sprintf("enroll%d", k))
		if err != nil {
			return err
		}
		defer c.close()
		for _, e := range in.enroll {
			if e.subject%nproc() != k {
				continue
			}
			err := enroll(c, e, w.beeps)
			l.record(p, err)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One blocking retrain per shard that owns users, sent to the shard
	// itself: a retrain per user would train a new version each time.
	p = l.phase("setup-retrain")
	versions := map[int]bool{}
	owned := make([][]int, len(t.shards))
	for k, d := range t.shards {
		users, v, err := retrainShard(d.addr)
		l.record(p, err)
		if err != nil {
			return nil, fmt.Errorf("retrain %s: %w", d.addr, err)
		}
		owned[k] = users
		if v > 0 {
			versions[v] = true
		}
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("no shard owns an enrolled user")
	}
	l.mu.Lock()
	l.versions = versions
	l.mu.Unlock()
	return owned, nil
}

// parallel runs f(0..n-1) concurrently and returns the first error.
func parallel(n int, f func(k int) error) error {
	errs := make(chan error, n)
	for k := 0; k < n; k++ {
		go func(k int) { errs <- f(k) }(k)
	}
	var first error
	for k := 0; k < n; k++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// enroll adds one capture to its subject's enrollment without retraining.
func enroll(c *client, e capture, beeps int) error {
	var resp proto.EnrollResponse
	if err := c.call(proto.TypeEnrollRequest, e.subject, proto.EnrollRequest{UserID: e.subject, Capture: e.wire}, proto.TypeEnrollResponse, &resp); err != nil {
		return err
	}
	if resp.UserID != e.subject || resp.Images != beeps {
		return fmt.Errorf("enroll subject %d: reply names user %d with %d images, want %d", e.subject, resp.UserID, resp.Images, beeps)
	}
	return nil
}

// retrainShard trains one shard's model. It returns the shard's users and
// the new model version, or version 0 when the shard owns no users.
func retrainShard(addr string) ([]int, int, error) {
	c, err := dial(addr, "retrain")
	if err != nil {
		return nil, 0, err
	}
	defer c.close()
	var st proto.StatusResponse
	if err := c.call(proto.TypeStatusRequest, 0, struct{}{}, proto.TypeStatusResponse, &st); err != nil {
		return nil, 0, err
	}
	if len(st.Users) == 0 {
		return nil, 0, nil
	}
	var rr proto.RetrainResponse
	if err := c.call(proto.TypeRetrainRequest, 0, proto.RetrainRequest{Wait: true}, proto.TypeRetrainResponse, &rr); err != nil {
		return nil, 0, err
	}
	if rr.Queued || rr.ModelVersion < 1 {
		return nil, 0, fmt.Errorf("blocking retrain answered queued=%v version=%d", rr.Queued, rr.ModelVersion)
	}
	return st.Users, rr.ModelVersion, nil
}

// warmUp sends each shard warmups held-out probes of users it owns,
// spread over the connections.
func warmUp(t *topology, in *inputs, l *ledger, owned [][]int) error {
	var picks []int
	for _, users := range owned {
		sent := 0
		for i, pr := range in.probes {
			if sent < warmups && pr.enrolled && contains(users, pr.subject) {
				picks = append(picks, i)
				sent++
			}
		}
	}
	p := l.phase("setup-warmup")
	return parallel(nproc(), func(k int) error {
		c, err := dial(t.entry(), fmt.Sprintf("warmup%d", k))
		if err != nil {
			return err
		}
		defer c.close()
		for j := k; j < len(picks); j += nproc() {
			_, err := authenticate(c, in, picks[j], l)
			l.record(p, err)
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// enrollReady enrolls one capture and blocks on a retrain of the shard
// that owns the subject, returning the time from the enrollment's send
// until the retrain returned: from then on the subject can authenticate.
func enrollReady(c *client, e capture, beeps int) (time.Duration, error) {
	start := time.Now()
	if err := enroll(c, e, beeps); err != nil {
		return 0, err
	}
	var rr proto.RetrainResponse
	if err := c.call(proto.TypeRetrainRequest, e.subject, proto.RetrainRequest{Wait: true}, proto.TypeRetrainResponse, &rr); err != nil {
		return 0, err
	}
	if rr.Queued || rr.ModelVersion < 2 {
		return 0, fmt.Errorf("retrain after enrolling subject %d answered queued=%v version=%d", e.subject, rr.Queued, rr.ModelVersion)
	}
	ready := time.Since(start)
	// A newcomer joins by extension: only its own classifiers are fit.
	var mi proto.ModelInfoResponse
	if err := c.call(proto.TypeModelInfoRequest, e.subject, struct{}{}, proto.TypeModelInfoResponse, &mi); err != nil {
		return 0, err
	}
	if !mi.Extended || mi.ModelVersion != rr.ModelVersion {
		return 0, fmt.Errorf("subject %d joined model version %d (extended=%v), want an extension at version %d", e.subject, mi.ModelVersion, mi.Extended, rr.ModelVersion)
	}
	return ready, nil
}

// decisions tallies the reference decisions: held-out sessions accepted
// as their own subject, and impostors rejected.
func decisions(in *inputs, l *ledger) (accept, reject ratio) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, p := range in.probes {
		d, ok := l.refs[i]
		if !ok {
			continue
		}
		if p.enrolled {
			accept.base++
			if d.accepted && d.user == p.subject {
				accept.hits++
			}
		} else {
			reject.base++
			if !d.accepted {
				reject.hits++
			}
		}
	}
	return accept, reject
}
