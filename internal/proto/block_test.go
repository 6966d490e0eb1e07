package proto

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"echoimage/internal/body"
	"echoimage/internal/dataset"
	"echoimage/internal/sim"
)

// edgeSamples are the finite values a decimal round trip is most likely
// to disturb: signed zero, subnormals, the extremes and the smallest
// normal.
var edgeSamples = []float64{
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	0x1p-1022, -0x1p-1022, // smallest normal
	1, -1, 0.1, math.Pi,
}

// randomSample returns an edge value or finite random bits.
func randomSample(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return edgeSamples[rng.Intn(len(edgeSamples))]
	}
	for {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

func randomChannels(rng *rand.Rand, mics, samples int) [][]float64 {
	out := make([][]float64, mics)
	for m := range out {
		out[m] = make([]float64, samples)
		for i := range out[m] {
			out[m][i] = randomSample(rng)
		}
	}
	return out
}

// sameBits reports whether a and b have one shape and bit-identical
// samples.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for m := range a {
		if len(a[m]) != len(b[m]) {
			return false
		}
		for i := range a[m] {
			if math.Float64bits(a[m][i]) != math.Float64bits(b[m][i]) {
				return false
			}
		}
	}
	return true
}

func sameCapture(a, b *CaptureWire) bool {
	if len(a.Beeps) != len(b.Beeps) || a.SampleRate != b.SampleRate {
		return false
	}
	for l := range a.Beeps {
		if !sameBits(a.Beeps[l], b.Beeps[l]) {
			return false
		}
	}
	return sameBits(a.NoiseOnly, b.NoiseOnly) && sameBits(a.Reference, b.Reference)
}

// wireRoundTrip sends a capture the way a client does — json.Marshal,
// WriteEnvelope — and decodes it the way the daemon does — Read,
// DecodeBody — returning the decoded capture and the frame size.
func wireRoundTrip(t *testing.T, capture CaptureWire) (CaptureWire, int) {
	t.Helper()
	raw, err := json.Marshal(AuthRequest{Capture: capture})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Version: Version, Type: TypeAuthRequest, RequestID: "rt", User: 1, Body: raw}); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	env, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var back AuthRequest
	if err := DecodeBody(env, &back); err != nil {
		t.Fatal(err)
	}
	return back.Capture, size
}

// TestSampleBlockRoundTrip: every sample crosses the full client-to-daemon
// path bit for bit, over random shapes and the edge values.
func TestSampleBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		beeps, mics, samples := 1+rng.Intn(4), 1+rng.Intn(7), rng.Intn(40)
		in := CaptureWire{Beeps: make(Beeps, beeps), SampleRate: 48000}
		for l := range in.Beeps {
			in.Beeps[l] = randomChannels(rng, mics, samples)
		}
		if rng.Intn(2) == 0 {
			in.NoiseOnly = randomChannels(rng, mics, rng.Intn(60))
		}
		if rng.Intn(2) == 0 {
			in.Reference = randomChannels(rng, mics, 1+rng.Intn(30))
		}
		if out, _ := wireRoundTrip(t, in); !sameCapture(&in, &out) {
			t.Fatalf("trial %d: shape %dx%dx%d did not round-trip bit for bit", trial, beeps, mics, samples)
		}
	}
}

// TestSampleBlockSimulatedCapture: a simulated 12-beep capture with its
// noise-only and reference channels crosses bit for bit, in a frame of
// 3.56 MiB.
func TestSampleBlockSimulatedCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	cap, noiseOnly, err := dataset.Collect(dataset.SessionSpec{
		Profile: body.Roster()[0], Env: sim.EnvLab, Noise: sim.NoiseQuiet,
		DistanceM: 0.7, Session: 1, Beeps: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := CaptureWire{Beeps: cap.Beeps, SampleRate: cap.SampleRate, NoiseOnly: noiseOnly, Reference: cap.Reference}
	if len(in.NoiseOnly) == 0 || len(in.Reference) == 0 {
		t.Fatal("simulated capture lacks noise-only or reference channels")
	}
	out, size := wireRoundTrip(t, in)
	if !sameCapture(&in, &out) {
		t.Fatal("simulated capture did not round-trip bit for bit")
	}
	if mib := float64(size) / (1 << 20); math.Abs(mib-3.56) > 0.005 {
		t.Errorf("12-beep frame is %.3f MiB, want 3.56", mib)
	}
}

// TestSampleBlockViews: a decoded block is one slab cut into
// capacity-capped views, so appending to one row leaves the next intact.
func TestSampleBlockViews(t *testing.T) {
	text, err := Beeps{{{1, 2}, {3, 4}}, {{5, 6}, {7, 8}}}.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var b Beeps
	if err := b.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	at := func(l, m int) uintptr { return uintptr(unsafe.Pointer(&b[l][m][0])) }
	if at(0, 1)-at(0, 0) != 16 || at(1, 0)-at(0, 1) != 16 || at(1, 1)-at(1, 0) != 16 {
		t.Error("rows are not consecutive views of one slab")
	}
	_ = append(b[0][0], 99)
	if b[0][1][0] != 3 || cap(b[0][0]) != 2 || cap(b[0]) != 2 {
		t.Errorf("append through a view overwrote its neighbour: %v", b)
	}
}

// TestSampleBlockEmptyShapes: an empty or nil array decodes to an empty,
// non-nil value, and empty rows keep their count, so Capture.Validate
// refuses them as it refuses the equivalent JSON arrays.
func TestSampleBlockEmptyShapes(t *testing.T) {
	for _, in := range []Channels{nil, {}, make(Channels, 6), {{}, {}}} {
		text, err := in.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var out Channels
		if err := out.UnmarshalText(text); err != nil {
			t.Fatalf("%d empty rows: %v", len(in), err)
		}
		if out == nil || len(out) != len(in) {
			t.Errorf("%d empty rows decoded as %#v", len(in), out)
		}
		for m := range out {
			if len(out[m]) != 0 {
				t.Errorf("empty row %d decoded with %d samples", m, len(out[m]))
			}
		}
	}
	text, err := Beeps(nil).MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var b Beeps
	if err := b.UnmarshalText(text); err != nil || b == nil || len(b) != 0 {
		t.Errorf("nil beeps decoded as %#v, %v", b, err)
	}
}

// TestSampleBlockRefusesNonFinite: NaN and ±Inf never reach the wire, and
// a block that carries one anyway is refused on decode.
func TestSampleBlockRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (Channels{{0, v}}).MarshalText(); err == nil {
			t.Errorf("channels with %v encoded", v)
		}
		if _, err := json.Marshal(AuthRequest{Capture: CaptureWire{Beeps: Beeps{{{1}, {v}}}}}); err == nil {
			t.Errorf("capture with %v marshalled", v)
		}
		var c Channels
		if err := c.UnmarshalText(rawBlock([]uint32{1, 2}, 0, v)); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("block carrying %v decoded: %v", v, err)
		}
	}
}

// rawBlock hand-builds a block's text, bypassing MarshalText's checks.
func rawBlock(dims []uint32, samples ...float64) []byte {
	raw := binary.LittleEndian.AppendUint32(nil, uint32(len(dims)))
	for _, d := range dims {
		raw = binary.LittleEndian.AppendUint32(raw, d)
	}
	for _, v := range samples {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return []byte(base64.StdEncoding.EncodeToString(raw))
}

// TestSampleBlockRefusesMalformed: a ragged array is refused on encode,
// and every malformed header is refused on decode before the slab is
// allocated.
func TestSampleBlockRefusesMalformed(t *testing.T) {
	if _, err := (Channels{{1, 2}, {3}}).MarshalText(); err == nil {
		t.Error("ragged channels encoded")
	}
	if _, err := (Beeps{{{1}, {2}}, {{3}}}).MarshalText(); err == nil {
		t.Error("ragged beeps encoded")
	}
	good := rawBlock([]uint32{2, 1}, 1, 2)
	for name, text := range map[string][]byte{
		"empty text":          nil,
		"short header":        []byte(base64.StdEncoding.EncodeToString([]byte{2, 0, 0, 0, 1})),
		"wrong rank":          rawBlock([]uint32{2, 1, 1}, 1, 2),
		"too few samples":     rawBlock([]uint32{2, 2}, 1, 2),
		"too many samples":    rawBlock([]uint32{1, 1}, 1, 2),
		"overflowing shape":   rawBlock([]uint32{math.MaxUint32, math.MaxUint32}, 1, 2),
		"dims after a zero":   rawBlock([]uint32{0, 5}),
		"too many empty rows": rawBlock([]uint32{maxEmptyRows + 1, 0}),
		"unpadded":            bytes.TrimRight(rawBlock([]uint32{1, 1}), "="),
		"line break":          append(append(append([]byte{}, good[:8]...), '\n'), good[9:]...),
		"non-zero pad bits":   append(append([]byte{}, good[:len(good)-2]...), 'B', '='),
		"unpadded long tail":  append(append([]byte{}, good[:len(good)-2]...), 'A', 'A'),
		"not base64":          bytes.Repeat([]byte{'!'}, len(good)),
	} {
		if bytes.Equal(text, good) {
			t.Fatalf("%s: case equals the good block", name)
		}
		var c Channels
		if err := c.UnmarshalText(text); err == nil {
			t.Errorf("%s: %q decoded as %v", name, text, c)
		}
	}
	// A header promising a 64 MiB slab in a few bytes of text is refused
	// before the slab is allocated.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var c Channels
	if err := c.UnmarshalText(rawBlock([]uint32{1 << 20, 8}, 1)); err == nil {
		t.Error("header promising 8 Mi samples decoded")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("refusing a lying header allocated %d bytes", grown)
	}
	if err := c.UnmarshalText(good); err != nil || len(c) != 2 || c[1][0] != 2 {
		t.Errorf("good block decoded as %v, %v", c, err)
	}
}
