package experiments

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/core"
)

// SingleUserResult is the paper's single-user scenario (§V-E): one
// registered user per device, the SVDD gate alone decides, every other
// subject is an attacker.
type SingleUserResult struct {
	// FRR is the false rejection rate over registered users' test images.
	FRR float64
	// FAR is the false acceptance rate over attacker images.
	FAR float64
	// PerUser lists each evaluated registration.
	PerUser []SingleUserRow
}

// SingleUserRow is one registration's outcome.
type SingleUserRow struct {
	UserID    int
	Accepted  int
	LegitN    int
	Intruders int
	IntruderN int
}

// SingleUser evaluates min(EnvUsers, 4) independent single-user devices;
// each is attacked by 4 other subjects.
func SingleUser(ctx context.Context, s Scale) (*SingleUserResult, error) {
	sys, err := s.NewSystem()
	if err != nil {
		return nil, err
	}
	const distance = 0.7
	cond := QuietLab()
	owners, attackers := rosterSplit(minInt(s.EnvUsers, 4), 4)

	res := &SingleUserResult{}
	var legitOK, legitN, attackAccepted, attackN int
	for _, owner := range owners {
		imgs, err := enrollUser(ctx, sys, owner, cond, distance, s)
		if err != nil {
			return nil, err
		}
		auth, err := core.TrainAuthenticator(ctx, core.DefaultAuthConfig(),
			map[int][]*core.AcousticImage{owner.ID: imgs})
		if err != nil {
			return nil, fmt.Errorf("experiments: single-user training (user %d): %w", owner.ID, err)
		}

		row := SingleUserRow{UserID: owner.ID}
		legit, err := testUser(ctx, sys, owner, cond, distance, s)
		if err != nil {
			return nil, err
		}
		for _, img := range legit {
			row.LegitN++
			if auth.Authenticate(img).Accepted {
				row.Accepted++
			}
		}
		for _, attacker := range attackers {
			imgs, err := spooferImages(ctx, sys, attacker, cond, distance, s)
			if err != nil {
				return nil, err
			}
			for _, img := range imgs {
				row.IntruderN++
				if auth.Authenticate(img).Accepted {
					row.Intruders++
				}
			}
		}
		legitOK += row.Accepted
		legitN += row.LegitN
		attackAccepted += row.Intruders
		attackN += row.IntruderN
		res.PerUser = append(res.PerUser, row)
	}
	if legitN > 0 {
		res.FRR = 1 - float64(legitOK)/float64(legitN)
	}
	if attackN > 0 {
		res.FAR = float64(attackAccepted) / float64(attackN)
	}
	return res, nil
}

// Write renders the result.
func (r *SingleUserResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Single-user scenario (§V-E) — per-device SVDD gate only")
	fmt.Fprintf(w, "%-8s %10s %12s\n", "owner", "legit acc", "attacker acc")
	for _, row := range r.PerUser {
		fmt.Fprintf(w, "%-8d %6d/%-4d %8d/%-4d\n", row.UserID, row.Accepted, row.LegitN, row.Intruders, row.IntruderN)
	}
	fmt.Fprintf(w, "overall FRR %.4f, FAR %.4f\n", r.FRR, r.FAR)
}
