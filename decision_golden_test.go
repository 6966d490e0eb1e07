package echoimage_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"echoimage"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden")

// gateScoreTol is how far a probe's GateScore may move from its golden
// value. Accepted, UserID and Bin must match exactly. A score is only as
// precise as the trained gate: SVDD training stops once its KKT gap is
// below 1e-4, so enrollment pixels moved at rounding level (1e-14
// relative noise on every pixel) move the learned radius, and with it
// the scores, by up to 8.2e-5. A change to what the pipeline or the
// classifier computes moves them by far more than the tolerance, or
// flips a decision.
const gateScoreTol = 1e-3

const goldenPath = "testdata/decisions.golden"

var (
	goldenUsers     = []int{1, 2, 3, 4, 5, 6}
	goldenSpoofers  = []int{7, 8, 9, 10}
	goldenDistances = []float64{0.6, 0.9}
)

// decisionRow is one line of the golden table: an "image" row is one
// image's Authenticate result, a "vote" row the capture's
// AuthenticateMajorityRecorded result (whose Bin is not reported).
type decisionRow struct {
	key      string // kind, subject, distance, session, image
	accepted bool
	user     int
	bin      string
	score    float64
}

func (r decisionRow) String() string {
	return fmt.Sprintf("%s\t%t\t%d\t%s\t%s", r.key, r.accepted, r.user, r.bin,
		strconv.FormatFloat(r.score, 'g', -1, 64))
}

func parseDecisionRow(line string) (decisionRow, error) {
	f := strings.Split(line, "\t")
	if len(f) != 9 {
		return decisionRow{}, fmt.Errorf("%d fields, want 9", len(f))
	}
	acc, err := strconv.ParseBool(f[5])
	if err != nil {
		return decisionRow{}, err
	}
	user, err := strconv.Atoi(f[6])
	if err != nil {
		return decisionRow{}, err
	}
	score, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return decisionRow{}, err
	}
	return decisionRow{key: strings.Join(f[:5], "\t"), accepted: acc, user: user, bin: f[7], score: score}, nil
}

func goldenImages(t *testing.T, sys *echoimage.System, user, session, di, beeps int) []*echoimage.AcousticImage {
	t.Helper()
	imgs, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
		UserID: user, DistanceM: goldenDistances[di], Beeps: beeps, Session: session,
		Seed: int64(1000 + 100*user + 10*session + di),
	})
	if err != nil {
		t.Fatal(err)
	}
	return imgs
}

// decisionRows trains a fixed roster (users 1-6, two sessions at each of
// two distances) and authenticates held-out third sessions of every
// enrolled user and captures of four spoofers who never enrolled.
func decisionRows(t *testing.T) []decisionRow {
	t.Helper()
	sys, err := echoimage.NewSystem(pinConfig())
	if err != nil {
		t.Fatal(err)
	}
	enrollment := make(map[int][]*echoimage.AcousticImage)
	for _, id := range goldenUsers {
		for session := 1; session <= 2; session++ {
			for di := range goldenDistances {
				enrollment[id] = append(enrollment[id], goldenImages(t, sys, id, session, di, 4)...)
			}
		}
	}
	auth, err := echoimage.Train(context.Background(), echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		t.Fatal(err)
	}

	type probe struct{ subject, session int }
	var probes []probe
	for _, id := range goldenUsers {
		probes = append(probes, probe{id, 3})
	}
	for _, id := range goldenSpoofers {
		probes = append(probes, probe{id, 1})
	}
	var rows []decisionRow
	for _, p := range probes {
		for di, d := range goldenDistances {
			imgs := goldenImages(t, sys, p.subject, p.session, di, 5)
			for i, img := range imgs {
				r := auth.Authenticate(img)
				rows = append(rows, decisionRow{
					key:      fmt.Sprintf("image\t%d\t%g\t%d\t%d", p.subject, d, p.session, i),
					accepted: r.Accepted, user: r.UserID, bin: strconv.Itoa(r.Bin), score: r.GateScore,
				})
			}
			r, err := auth.AuthenticateMajorityRecorded(imgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, decisionRow{
				key:      fmt.Sprintf("vote\t%d\t%g\t%d\t-", p.subject, d, p.session),
				accepted: r.Accepted, user: r.UserID, bin: "-", score: r.GateScore,
			})
		}
	}
	return rows
}

// TestDecisionsGolden holds every probe's decision on a fixed roster
// against testdata/decisions.golden: Accepted, UserID and Bin exactly,
// GateScore within gateScoreTol. The pinned hashes in
// frontend_pin_test.go catch any bit change; this test says whether a
// change that moves bits on purpose moved a decision. Rewrite the table
// with `go test -run TestDecisionsGolden -update .` only for a change
// meant to move decisions, and say why.
func TestDecisionsGolden(t *testing.T) {
	rows := decisionRows(t)
	if *update {
		var b strings.Builder
		b.WriteString("# kind\tsubject\tdistance_m\tsession\timage\taccepted\tuser\tbin\tgate_score\n")
		for _, r := range rows {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", goldenPath, err)
	}
	var want []decisionRow
	for n, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseDecisionRow(line)
		if err != nil {
			t.Fatalf("%s line %d: %v", goldenPath, n+1, err)
		}
		want = append(want, r)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d decisions, golden has %d", len(rows), len(want))
	}
	for i, got := range rows {
		w := want[i]
		if got.key != w.key {
			t.Fatalf("row %d is %q, golden row is %q", i, got.key, w.key)
		}
		if got.accepted != w.accepted || got.user != w.user || got.bin != w.bin {
			t.Errorf("%s: accepted=%t user=%d bin=%s, golden accepted=%t user=%d bin=%s",
				got.key, got.accepted, got.user, got.bin, w.accepted, w.user, w.bin)
		}
		if d := math.Abs(got.score - w.score); !(d <= gateScoreTol) {
			t.Errorf("%s: gate score %g, golden %g (|Δ|=%g > %g)", got.key, got.score, w.score, d, gateScoreTol)
		}
	}
}
