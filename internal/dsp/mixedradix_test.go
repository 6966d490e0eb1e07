package dsp

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
)

// mixedSizes is every smooth non-power-of-two length up to 512 plus the
// front end's beep and noise-only lengths and their halves.
func mixedSizes() []int {
	var sizes []int
	for n := 1; n <= 512; n++ {
		if n&(n-1) != 0 && smooth(n) {
			sizes = append(sizes, n)
		}
	}
	return append(sizes, 1320, 2640, 12000, 24000)
}

// referenceBins returns the bins a reference DFT is evaluated at: all of
// them up to 512 points, the edges and a random sample above.
func referenceBins(rng *rand.Rand, n int) []int {
	if n <= 512 {
		bins := make([]int, n)
		for k := range bins {
			bins[k] = k
		}
		return bins
	}
	bins := []int{0, 1, 2, n/2 - 1, n / 2, n/2 + 1, n - 2, n - 1}
	for len(bins) < 40 {
		bins = append(bins, rng.Intn(n))
	}
	return bins
}

// dd is a double-double accumulator: hi + lo carries about 106 bits.
type dd struct{ hi, lo float64 }

// add accumulates b exactly into hi, carrying the rounding error to lo.
func (a *dd) add(b float64) {
	s := a.hi + b
	bb := s - a.hi
	a.lo += (a.hi - (s - bb)) + (b - bb)
	a.hi = s
}

// addProd accumulates x·(y.hi + y.lo), the leading product exactly.
func (a *dd) addProd(x float64, y dd) {
	p := x * y.hi
	a.add(p)
	a.lo += math.FMA(x, y.hi, -p) + x*y.lo
}

func (a dd) value() float64 { return a.hi + a.lo }

// exactRoots returns exp(−2πik/n) for k < n to double-double accuracy: a
// 256-bit Taylor series for k = 1, then 256-bit repeated products.
func exactRoots(n int) (re, im []dd) {
	const prec = 256
	newF := func() *big.Float { return new(big.Float).SetPrec(prec) }
	pi, _ := newF().SetString("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798214808651")
	theta := newF().Quo(newF().Mul(pi, big.NewFloat(2)), newF().SetInt64(int64(n)))
	cos, sin := newF().SetInt64(1), newF().Set(theta)
	term := newF().SetInt64(1)
	for m := 1; m < 120; m++ {
		term.Mul(term, theta)
		term.Quo(term, newF().SetInt64(int64(m)))
		switch m % 4 {
		case 1:
			if m > 1 {
				sin.Add(sin, term)
			}
		case 2:
			cos.Sub(cos, term)
		case 3:
			sin.Sub(sin, term)
		case 0:
			cos.Add(cos, term)
		}
	}
	sin.Neg(sin)
	split := func(f *big.Float) dd {
		hi, _ := f.Float64()
		lo, _ := newF().Sub(f, newF().SetFloat64(hi)).Float64()
		return dd{hi, lo}
	}
	re, im = make([]dd, n), make([]dd, n)
	wr, wi := newF().SetInt64(1), newF()
	for k := 0; k < n; k++ {
		re[k], im[k] = split(wr), split(wi)
		a, b := newF().Mul(wr, cos), newF().Mul(wi, sin)
		c, d := newF().Mul(wr, sin), newF().Mul(wi, cos)
		wr, wi = a.Sub(a, b), c.Add(c, d)
	}
	return re, im
}

// exactDFT evaluates the forward DFT of x at the given bins with
// double-double roots and accumulation, so its own error is far below
// either FFT's.
func exactDFT(x []complex128, bins []int, re, im []dd) []complex128 {
	n := len(x)
	out := make([]complex128, len(bins))
	for bi, k := range bins {
		var sr, si dd
		for t, v := range x {
			j := k * t % n
			sr.addProd(real(v), re[j])
			sr.addProd(-imag(v), im[j])
			si.addProd(real(v), im[j])
			si.addProd(imag(v), re[j])
		}
		out[bi] = complex(sr.value(), si.value())
	}
	return out
}

// binSqErr is the summed |got[k] − want|² over the reference bins. The
// unscaled inverse transform at bin k is the forward one at (n−k) mod n.
func binSqErr(got []complex128, bins []int, want []complex128, inverse bool) float64 {
	n := len(got)
	var sum float64
	for bi, k := range bins {
		if inverse {
			k = (n - k) % n
		}
		d := cmplx.Abs(got[k] - want[bi])
		sum += d * d
	}
	return sum
}

// TestMixedRadixMatchesNaiveDFT checks both directions of every smooth
// length against a double-double direct DFT, and requires the RMS error
// to be no larger than Bluestein's on the same inputs. Short lengths pool
// about 500 bins over several inputs, so the comparison is not decided by
// one rounding on three bins.
func TestMixedRadixMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var worstRatio float64
	for _, n := range mixedSizes() {
		re, im := exactRoots(n)
		for _, inverse := range []bool{false, true} {
			var errMixed, errChirp float64
			for trial := 0; trial < 1+512/n; trial++ {
				x := randComplex(rng, n)
				bins := referenceBins(rng, n)
				want := exactDFT(x, bins, re, im)
				got := append([]complex128(nil), x...)
				fftInPlace(got, inverse)
				chirp := make([]complex128, n)
				bluesteinTo(chirp, x, inverse)
				errMixed += binSqErr(got, bins, want, inverse)
				errChirp += binSqErr(chirp, bins, want, inverse)
			}
			ratio := math.Sqrt(errMixed / errChirp)
			if ratio > 1 {
				t.Errorf("n=%d inverse=%v: mixed-radix RMS error %.3g× Bluestein's", n, inverse, ratio)
			}
			worstRatio = math.Max(worstRatio, ratio)
		}
	}
	t.Logf("largest mixed-radix / Bluestein RMS error ratio: %.3f", worstRatio)
}

// TestMixedRadixRoundTrip checks IFFT(FFT(x)) ≈ x on every smooth length.
func TestMixedRadixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range mixedSizes() {
		x := randComplex(rng, n)
		complexSliceClose(t, IFFT(FFT(x)), x, 1e-13*math.Log2(float64(n)+1), "IFFT∘FFT")
	}
}

// TestMixedRadicesFactor checks the stage plan multiplies back to n and
// runs the generic primes first.
func TestMixedRadicesFactor(t *testing.T) {
	cases := map[int][]int{
		1320:  {11, 5, 3, 2, 4},
		12000: {5, 5, 5, 3, 2, 4, 4},
		1001:  {13, 11, 7},
		6:     {3, 2},
		48:    {3, 4, 4},
	}
	for n, want := range cases {
		got := mixedRadices(n)
		if len(got) != len(want) {
			t.Fatalf("mixedRadices(%d) = %v, want %v", n, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mixedRadices(%d) = %v, want %v", n, got, want)
			}
		}
	}
}

// TestFFTLargePrimeKeepsBluestein checks that a length with a prime factor
// above maxRadix takes Bluestein (bit-identical to bluesteinTo) and still
// agrees with the direct DFT.
func TestFFTLargePrimeKeepsBluestein(t *testing.T) {
	const n = 2 * 1009
	if smooth(n) {
		t.Fatalf("smooth(%d) = true", n)
	}
	rng := rand.New(rand.NewSource(23))
	x := randComplex(rng, n)
	got := FFT(x)
	chirp := make([]complex128, n)
	bluesteinTo(chirp, x, false)
	for k := range got {
		if got[k] != chirp[k] {
			t.Fatalf("bin %d: FFT %v, bluesteinTo %v", k, got[k], chirp[k])
		}
	}
	bins := referenceBins(rng, n)
	if d := math.Sqrt(binSqErr(got, bins, dftBins(x, bins), false)); d > 1e-10 {
		t.Errorf("|FFT − DFT| = %.3g > 1e-10", d)
	}
}

// analyticViaBluestein is the widened analytic signal with both full-length
// transforms run by bluesteinTo: the reference the mixed-radix front end
// is held to.
func analyticViaBluestein(x []float64) []complex128 {
	n := len(x)
	spec := make([]complex128, n)
	for i, v := range x {
		spec[i] = complex(v, 0)
	}
	bluesteinTo(spec, spec, false)
	for k := 1; k < n/2; k++ {
		spec[k] *= 2
	}
	for k := n/2 + 1; k < n; k++ {
		spec[k] = 0
	}
	bluesteinTo(spec, spec, true)
	for i := range spec {
		spec[i] /= complex(float64(n), 0)
	}
	return spec
}

// TestAnalyticSignalMatchesBluesteinReference holds AnalyticSignal at the
// beep and noise-only lengths to 1e-13 of the peak against the Bluestein
// reference.
func TestAnalyticSignalMatchesBluesteinReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{2640, 24000} {
		x := randReal(rng, n)
		got := AnalyticSignal(x)
		want := analyticViaBluestein(x)
		var peak, worst float64
		for i := range want {
			peak = math.Max(peak, cmplx.Abs(want[i]))
			worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
		}
		if worst > 1e-13*peak {
			t.Errorf("n=%d: max |analytic − reference| = %.3g, above 1e-13 of peak %.3g", n, worst, peak)
		}
	}
}

// TestMixedRadixSteadyStateAllocs checks a warm in-place transform
// allocates nothing.
func TestMixedRadixSteadyStateAllocs(t *testing.T) {
	z := randComplex(rand.New(rand.NewSource(25)), 1320)
	fftInPlace(z, false)
	if a := testing.AllocsPerRun(20, func() { fftInPlace(z, false) }); a != 0 {
		t.Errorf("%.1f allocs per warm 1320-point transform, want 0", a)
	}
}

// FuzzFFTLength runs the dispatched transform at a fuzzed length up to
// 4,096 on seeded random samples: it must agree with Bluestein and the
// inverse must round-trip.
func FuzzFFTLength(f *testing.F) {
	for _, n := range []uint16{1, 6, 100, 1320, 2018, 2640, 4095} {
		f.Add(n, int64(n))
	}
	f.Fuzz(func(t *testing.T, length uint16, seed int64) {
		n := int(length)%4096 + 1
		x := randComplex(rand.New(rand.NewSource(seed)), n)
		got := FFT(x)
		chirp := make([]complex128, n)
		bluesteinTo(chirp, x, false)
		// Rounding grows as log n per sample and √n per bin magnitude.
		tol := 1e-12 * math.Log2(float64(n)+1)
		complexSliceClose(t, got, chirp, tol*math.Sqrt(float64(n)), "FFT vs Bluestein")
		complexSliceClose(t, IFFT(got), x, tol, "IFFT∘FFT")
	})
}

// TestRootOfUnity checks the octant folding against the unfolded angle
// (whose own rounding sets the tolerance) on every octant of a few circles.
func TestRootOfUnity(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 7, 8, 11, 1320, 12000} {
		for k := 0; k < 2*n; k += 1 + n/50 {
			for _, inverse := range []bool{false, true} {
				sign := -1.0
				if inverse {
					sign = 1
				}
				want := cmplx.Exp(complex(0, sign*2*math.Pi*float64(k%n)/float64(n)))
				if d := cmplx.Abs(rootOfUnity(k, n, inverse) - want); d > 2e-15 {
					t.Errorf("rootOfUnity(%d, %d, %v) off by %.3g", k, n, inverse, d)
				}
			}
		}
	}
}
