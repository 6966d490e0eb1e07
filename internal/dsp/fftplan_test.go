package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// dftBins evaluates the naive DFT at the selected output bins only, with
// Kahan-compensated accumulation, so a 2¹⁶-point reference stays cheap and
// accurate.
func dftBins(x []complex128, bins []int) []complex128 {
	n := len(x)
	out := make([]complex128, len(bins))
	for bi, k := range bins {
		var sumRe, sumIm, cRe, cIm float64
		for t := 0; t < n; t++ {
			// exp(-2πi·k·t/n) with the phase reduced mod n to keep the
			// argument small.
			kt := (int64(k) * int64(t)) % int64(n)
			s, c := math.Sincos(-2 * math.Pi * float64(kt) / float64(n))
			re := real(x[t])*c - imag(x[t])*s
			im := real(x[t])*s + imag(x[t])*c
			// Kahan summation on both components.
			y := re - cRe
			tmp := sumRe + y
			cRe = (tmp - sumRe) - y
			sumRe = tmp
			y = im - cIm
			tmp = sumIm + y
			cIm = (tmp - sumIm) - y
			sumIm = tmp
		}
		out[bi] = complex(sumRe, sumIm)
	}
	return out
}

// TestFFT65536AgainstNaiveDFT checks a 2¹⁶-point transform against the
// direct DFT sum at a sample of bins. The table-based twiddles must stay
// within 1e-9 of the reference; the previous serial w *= wStep recurrence
// accumulated rounding error linear in the transform length.
func TestFFT65536AgainstNaiveDFT(t *testing.T) {
	if testing.Short() {
		t.Skip("2^16-point reference DFT")
	}
	const n = 1 << 16
	rng := rand.New(rand.NewSource(16))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	bins := []int{0, 1, 2, n/2 - 1, n / 2, n/2 + 1, n - 2, n - 1}
	for i := 0; i < 56; i++ {
		bins = append(bins, rng.Intn(n))
	}
	got := FFT(x)
	want := dftBins(x, bins)
	for bi, k := range bins {
		if d := cmplx.Abs(got[k] - want[bi]); d > 1e-9 {
			t.Errorf("bin %d: |fft-dft| = %g > 1e-9", k, d)
		}
	}
}

// TestFFTPlanReuseMatchesFirstCall ensures the cached-plan path is
// deterministic: repeated transforms of the same input are bitwise equal.
func TestFFTPlanReuseMatchesFirstCall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{8, 256, 2048, 100, 2640} {
		x := randComplex(rng, n)
		first := FFT(x)
		for i := 0; i < 3; i++ {
			again := FFT(x)
			for k := range first {
				if first[k] != again[k] {
					t.Fatalf("n=%d: call %d bin %d: %v != %v", n, i, k, again[k], first[k])
				}
			}
		}
	}
}

// TestFFTConcurrentPlanUse hammers the plan caches (radix-2, mixed radix
// and Bluestein) from many goroutines; run with -race to verify cache and
// scratch-pool safety.
func TestFFTConcurrentPlanUse(t *testing.T) {
	sizes := []int{64, 100, 1024, 2640, 333}
	inputs := make([][]complex128, len(sizes))
	wants := make([][]complex128, len(sizes))
	rng := rand.New(rand.NewSource(9))
	for i, n := range sizes {
		inputs[i] = randComplex(rng, n)
		wants[i] = FFT(inputs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(sizes)
				got := FFT(inputs[i])
				for k := range got {
					if got[k] != wants[i][k] {
						t.Errorf("goroutine %d size %d: mismatch at %d", g, sizes[i], k)
						return
					}
				}
				back := IFFT(got)
				if len(back) != len(inputs[i]) {
					t.Errorf("goroutine %d: IFFT length %d", g, len(back))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
