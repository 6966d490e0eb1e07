package echoimage_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"echoimage"
	"echoimage/internal/features"
)

// The front end (bandpass, analytic conversion, noise covariance, MVDR
// imaging) and the frozen feature extractor are pure functions of their
// inputs, so their output bits are pinned: a speed change that reorders
// one floating-point sum changes a hash here. A deliberate change to what
// the pipeline computes re-records the hashes and says why.
//
// The model hash was re-recorded when features.Config lost its Workers
// field (the snapshot JSON dropped two "Workers":0 keys), and again for
// snapshot format version 3: the top-level "features" key and each bin's
// "embeds" blob are gone, the version reads 3, and each index blob's IDs
// are user labels instead of row numbers. The same model, rewritten that
// way from the version 2 bytes, reproduces the new snapshot exactly.
//
// All three were re-recorded when analytic conversion moved from
// Bluestein to the mixed-radix FFT for the 2,640- and 24,000-sample
// channels: the transforms agree to rounding, so every image changes in
// its last bits (at most 3.4e-16 of the peak pixel, with the distance
// estimate bit-identical), and the features and the model trained on
// them follow.
//
// All three were re-recorded again when imaging became a windowed
// quadratic form: a pixel's energy is wᴴRw with R taken from prefix sums
// of x(t)x(t)ᴴ instead of a per-sample sum of |wᴴx(t)|², which rounds
// differently. Every image changes in its last bits (at most 1.6e-14 of
// the peak pixel, no pixel crossing the noise-floor clamp, the distance
// estimate bit-identical), and the features and the model follow. No
// decision in testdata/decisions.golden moved.
const (
	pinnedImagesSHA   = "2d90b561ad2dc3a01644f9ba8c7a8eff121e5629a94d87086e212c42bca10b5d"
	pinnedFeaturesSHA = "ee463101c0652a704b606dc441630ada35d6f94371a2b26578178a27848977d6"
	pinnedModelSHA    = "17a8ec783f8d4b0f55181ab8966af820d6a2f4ddd35cea5584fccc83ff353617"
)

// pinConfig is the CI-scale imaging grid: small enough for -race, large
// enough that every stage runs its general path.
func pinConfig() echoimage.Config {
	cfg := echoimage.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	return cfg
}

func hashFloats(h hash.Hash, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

func hashResult(h hash.Hash, res *echoimage.ProcessResult) {
	if res.Distance != nil {
		hashFloats(h, res.Distance.SlantM, res.Distance.UserM, res.Distance.EmissionSec)
	}
	for _, img := range res.Images {
		hashFloats(h, float64(img.Rows), float64(img.Cols), img.PlaneDistM)
		hashFloats(h, img.Pix...)
	}
}

func processPinCapture(t *testing.T, cfg echoimage.Config) *echoimage.ProcessResult {
	t.Helper()
	sys, err := echoimage.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
		UserID: 3, DistanceM: 0.7, Beeps: 12, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cap.Reference == nil || noiseOnly == nil {
		t.Fatal("simulated capture lacks a reference or a noise-only recording")
	}
	res, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Images) != 12 {
		t.Fatalf("%d images, want 12", len(res.Images))
	}
	return res
}

// TestFrontEndBitsPinned hashes the images and feature vectors of one
// fixed 12-beep capture (with background reference and noise-only
// recording), and the snapshot of a model trained on a fixed small
// enrollment, against hashes recorded with the quadratic-form imager.
func TestFrontEndBitsPinned(t *testing.T) {
	res := processPinCapture(t, pinConfig())
	ih := sha256.New()
	hashResult(ih, res)

	ext, err := features.NewExtractor(features.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fh := sha256.New()
	for _, img := range res.Images {
		hashFloats(fh, ext.Extract(img.Image)...)
	}

	sys, err := echoimage.NewSystem(pinConfig())
	if err != nil {
		t.Fatal(err)
	}
	enrollment := make(map[int][]*echoimage.AcousticImage)
	for _, id := range []int{1, 2} {
		for session := 1; session <= 2; session++ {
			imgs, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
				UserID: id, DistanceM: 0.7, Beeps: 5, Session: session, Seed: int64(10*id + session),
			})
			if err != nil {
				t.Fatal(err)
			}
			enrollment[id] = append(enrollment[id], imgs...)
		}
	}
	auth, err := echoimage.Train(context.Background(), echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := auth.Save(&snap); err != nil {
		t.Fatal(err)
	}
	mh := sha256.Sum256(snap.Bytes())

	for _, c := range []struct{ what, got, want string }{
		{"images", hex.EncodeToString(ih.Sum(nil)), pinnedImagesSHA},
		{"features", hex.EncodeToString(fh.Sum(nil)), pinnedFeaturesSHA},
		{"model snapshot", hex.EncodeToString(mh[:]), pinnedModelSHA},
	} {
		if c.got != c.want {
			t.Errorf("%s hash %s, pinned %s", c.what, c.got, c.want)
		}
	}
}

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test and restores the
// previous value when it ends. No test in this package runs in parallel.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestProcessWorkersIdentical checks that the worker count is invisible
// in ProcessRecordedContext's output: one worker and a pool of four
// produce the same bits.
func TestProcessWorkersIdentical(t *testing.T) {
	var sums [2][]byte
	for i, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		h := sha256.New()
		hashResult(h, processPinCapture(t, pinConfig()))
		sums[i] = h.Sum(nil)
	}
	if !bytes.Equal(sums[0], sums[1]) {
		t.Errorf("GOMAXPROCS=1 hash %x != GOMAXPROCS=4 hash %x", sums[0], sums[1])
	}
}

// stageLog records the stage names a StageRecorder receives, in order.
// It takes no lock, so -race flags a recorder call from a worker.
type stageLog []string

func (l *stageLog) RecordStage(stage string, _ time.Duration) { *l = append(*l, stage) }

// TestAuthenticateMajorityWorkersIdentical checks that the image fan-out
// of AuthenticateMajorityRecorded is invisible in its decision: one worker
// and a pool of four give the same AuthResult, GateScore bits included,
// on a 12-image capture of an enrolled user. It also checks the recorder
// contract: one features span, then index-search and classify per image.
func TestAuthenticateMajorityWorkersIdentical(t *testing.T) {
	sys, err := echoimage.NewSystem(pinConfig())
	if err != nil {
		t.Fatal(err)
	}
	enrollment := make(map[int][]*echoimage.AcousticImage)
	for _, id := range []int{1, 3} {
		imgs, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
			UserID: id, DistanceM: 0.7, Beeps: 6, Session: 1, Seed: int64(10 * id),
		})
		if err != nil {
			t.Fatal(err)
		}
		enrollment[id] = imgs
	}
	auth, err := echoimage.Train(context.Background(), echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		t.Fatal(err)
	}
	imgs := processPinCapture(t, pinConfig()).Images

	var results [2]echoimage.AuthResult
	for i, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		var log stageLog
		results[i], err = auth.AuthenticateMajorityRecorded(imgs, &log)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"features"}
		for range imgs {
			want = append(want, "index_search", "classify")
		}
		if !slices.Equal(log, want) {
			t.Errorf("GOMAXPROCS=%d: stages %v, want %v", procs, log, want)
		}
	}
	a, b := results[0], results[1]
	if a.Accepted != b.Accepted || a.UserID != b.UserID || a.Bin != b.Bin ||
		math.Float64bits(a.GateScore) != math.Float64bits(b.GateScore) {
		t.Errorf("GOMAXPROCS=1 result %+v != GOMAXPROCS=4 result %+v", a, b)
	}
}
