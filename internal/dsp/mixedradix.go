package dsp

import (
	"math"
	"math/bits"
	"sync"
)

// Mixed-radix transforms. A length whose prime factors are all at most
// maxRadix (the front end's 1,320 = 2³·3·5·11 and 12,000 = 2⁵·3·5³
// half-length transforms) runs a Stockham autosort FFT: one decimation-in-
// time pass per factor, ping-ponging between the caller's buffer and a
// pooled partner, with the output landing in natural order and no
// permutation pass. Each pass costs O(n·p) for radix p, against the two
// 2^⌈log₂(2n)⌉-point transforms Bluestein runs for the same length.
//
// Stage s with radix p takes the array from holding, for each of the
// r = n/l residue classes k, the l-point DFT of x[k], x[k+r], … (element
// j·r+k for frequency j) to the same layout for l' = l·p:
//
//	Y'[(j+l·u)·m + k] = Σ_v ω_p^{uv} · ω_{l'}^{vj} · Y[j·p·m + v·m + k]
//
// with m = n/l' and j < l, k < m, u < p. The inner loop runs over k with
// the twiddles ω_{l'}^{vj} fixed, so every pass streams contiguously.

// maxRadix is the largest prime the mixed-radix path factors out. Above
// it a plain O(p²) butterfly falls behind Bluestein, so such lengths keep
// the chirp-z transform.
const maxRadix = 13

// smooth reports whether n > 0 has no prime factor above maxRadix.
func smooth(n int) bool {
	if n <= 0 {
		return false
	}
	for _, p := range [...]int{2, 3, 5, 7, 11, 13} {
		for n%p == 0 {
			n /= p
		}
	}
	return n == 1
}

// mixedStage is one Stockham pass: radix p, from transform length l to
// l·p, over m = n/(l·p) interleaved transforms.
type mixedStage struct {
	p, l, m int
	// tw[j·(p-1)+v-1] = ω_{l·p}^{vj} for j < l, 0 < v < p.
	tw []complex128
	// root[k] = ω_p^k for k < p: the butterfly's own constants.
	root []complex128
}

// mixedPlan caches the stages of one (length, direction) and a pool of
// length-n ping-pong partners, so a steady-state transform allocates
// nothing.
type mixedPlan struct {
	stages []mixedStage
	bufs   sync.Pool // *[]complex128 of length n
}

var mixedPlans sync.Map // planKey -> *mixedPlan

func mixedPlanFor(n int, inverse bool) *mixedPlan {
	key := planKey{n, inverse}
	if v, ok := mixedPlans.Load(key); ok {
		return v.(*mixedPlan)
	}
	v, _ := mixedPlans.LoadOrStore(key, newMixedPlan(n, inverse))
	return v.(*mixedPlan)
}

// mixedRadices factors a smooth n into stage radices: the generic primes
// 13, 11 and 7 first, so the first pass, where l = 1 and every twiddle is
// 1, is the costliest butterfly with its twiddle multiplies skipped; then
// 5s, 3s, one 2 when the power of two is odd, and 4s.
func mixedRadices(n int) []int {
	var out []int
	for _, p := range [...]int{13, 11, 7, 5, 3} {
		for n%p == 0 {
			out = append(out, p)
			n /= p
		}
	}
	if bits.TrailingZeros(uint(n))&1 == 1 {
		out = append(out, 2)
		n /= 2
	}
	for ; n > 1; n /= 4 {
		out = append(out, 4)
	}
	return out
}

// rootOfUnity returns exp(±2πi·k/n), + for the inverse direction. The
// angle is folded into the first octant with integer arithmetic before
// Sincos runs, so large k/n lose no accuracy to the rounding of 2πk/n.
func rootOfUnity(k, n int, inverse bool) complex128 {
	k %= n
	k, n4 := 4*k, 4*n
	var octant uint
	if k > n4-k {
		k, octant = n4-k, octant|4
	}
	if k > n {
		k, octant = k-n, octant|2
	}
	if k > n-k {
		k, octant = n-k, octant|1
	}
	s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n4))
	if octant&1 != 0 {
		c, s = s, c
	}
	if octant&2 != 0 {
		c, s = -s, c
	}
	if octant&4 != 0 {
		s = -s
	}
	if !inverse {
		s = -s
	}
	return complex(c, s)
}

func newMixedPlan(n int, inverse bool) *mixedPlan {
	plan := &mixedPlan{}
	l := 1
	for _, p := range mixedRadices(n) {
		lp := l * p
		st := mixedStage{p: p, l: l, m: n / lp, tw: make([]complex128, l*(p-1)), root: make([]complex128, p)}
		for j := 0; j < l; j++ {
			for v := 1; v < p; v++ {
				st.tw[j*(p-1)+v-1] = rootOfUnity(v*j, lp, inverse)
			}
		}
		for k := range st.root {
			st.root[k] = rootOfUnity(k, p, inverse)
		}
		plan.stages = append(plan.stages, st)
		l = lp
	}
	plan.bufs.New = func() any {
		buf := make([]complex128, n)
		return &buf
	}
	return plan
}

// transform runs the unscaled DFT of z in place.
func (plan *mixedPlan) transform(z []complex128) {
	bp := plan.bufs.Get().(*[]complex128)
	src, dst := z, *bp
	for i := range plan.stages {
		st := &plan.stages[i]
		switch st.p {
		case 2:
			st.radix2(dst, src)
		case 3:
			st.radix3(dst, src)
		case 4:
			st.radix4(dst, src)
		case 5:
			st.radix5(dst, src)
		default:
			st.generic(dst, src)
		}
		src, dst = dst, src
	}
	if len(plan.stages)%2 == 1 {
		copy(z, src)
	}
	plan.bufs.Put(bp)
}

// rmul multiplies z by the real c without the zero cross terms of a
// complex multiply.
func rmul(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

// mulI returns i·z.
func mulI(z complex128) complex128 { return complex(-imag(z), real(z)) }

func (st *mixedStage) radix2(dst, src []complex128) {
	l, m := st.l, st.m
	lm := l * m
	for j := 0; j < l; j++ {
		w1 := st.tw[j]
		in := src[2*j*m : 2*(j+1)*m]
		x0, x1 := in[:m], in[m:]
		y0, y1 := dst[j*m:j*m+m], dst[j*m+lm:j*m+lm+m]
		for k := range x0 {
			a0, a1 := x0[k], x1[k]*w1
			y0[k], y1[k] = a0+a1, a0-a1
		}
	}
}

func (st *mixedStage) radix3(dst, src []complex128) {
	l, m := st.l, st.m
	lm := l * m
	// cos(2π/3) and sin(2π/3) in closed form, each correctly rounded.
	c, s := -0.5, math.Copysign(math.Sqrt(3)/2, imag(st.root[1]))
	for j := 0; j < l; j++ {
		w1, w2 := st.tw[2*j], st.tw[2*j+1]
		in := src[3*j*m : 3*(j+1)*m]
		x0, x1, x2 := in[:m], in[m:2*m], in[2*m:]
		o := j * m
		y0, y1, y2 := dst[o:o+m], dst[o+lm:o+lm+m], dst[o+2*lm:o+2*lm+m]
		for k := range x0 {
			a0, a1, a2 := x0[k], x1[k]*w1, x2[k]*w2
			t, d := a1+a2, a1-a2
			u := a0 + rmul(c, t)
			v := mulI(rmul(s, d))
			y0[k], y1[k], y2[k] = a0+t, u+v, u-v
		}
	}
}

// radix4 uses ω_4 = ∓i, a component swap rather than a multiply.
func (st *mixedStage) radix4(dst, src []complex128) {
	l, m := st.l, st.m
	lm := l * m
	s := imag(st.root[1]) // exactly ∓1
	for j := 0; j < l; j++ {
		w1, w2, w3 := st.tw[3*j], st.tw[3*j+1], st.tw[3*j+2]
		in := src[4*j*m : 4*(j+1)*m]
		x0, x1, x2, x3 := in[:m], in[m:2*m], in[2*m:3*m], in[3*m:]
		o := j * m
		y0, y1 := dst[o:o+m], dst[o+lm:o+lm+m]
		y2, y3 := dst[o+2*lm:o+2*lm+m], dst[o+3*lm:o+3*lm+m]
		for k := range x0 {
			a0, a1, a2, a3 := x0[k], x1[k]*w1, x2[k]*w2, x3[k]*w3
			t0, t1 := a0+a2, a0-a2
			t2, d := a1+a3, a1-a3
			t3 := mulI(rmul(s, d))
			y0[k], y1[k], y2[k], y3[k] = t0+t2, t1+t3, t0-t2, t1-t3
		}
	}
}

func (st *mixedStage) radix5(dst, src []complex128) {
	l, m := st.l, st.m
	lm := l * m
	c1, s1 := real(st.root[1]), imag(st.root[1])
	c2, s2 := real(st.root[2]), imag(st.root[2])
	for j := 0; j < l; j++ {
		tw := st.tw[4*j : 4*j+4]
		in := src[5*j*m : 5*(j+1)*m]
		x0, x1, x2, x3, x4 := in[:m], in[m:2*m], in[2*m:3*m], in[3*m:4*m], in[4*m:]
		o := j * m
		y0, y1, y2 := dst[o:o+m], dst[o+lm:o+lm+m], dst[o+2*lm:o+2*lm+m]
		y3, y4 := dst[o+3*lm:o+3*lm+m], dst[o+4*lm:o+4*lm+m]
		for k := range x0 {
			a0 := x0[k]
			a1, a2, a3, a4 := x1[k]*tw[0], x2[k]*tw[1], x3[k]*tw[2], x4[k]*tw[3]
			p1, d1 := a1+a4, a1-a4
			p2, d2 := a2+a3, a2-a3
			u1 := a0 + rmul(c1, p1) + rmul(c2, p2)
			u2 := a0 + rmul(c2, p1) + rmul(c1, p2)
			v1 := mulI(rmul(s1, d1) + rmul(s2, d2))
			v2 := mulI(rmul(s2, d1) - rmul(s1, d2))
			y0[k] = a0 + p1 + p2
			y1[k], y4[k] = u1+v1, u1-v1
			y2[k], y3[k] = u2+v2, u2-v2
		}
	}
}

// generic is the odd-prime butterfly for 7, 11 and 13. It pairs input q
// with p−q, so each output pair u, p−u shares one pass over the (p−1)/2
// sums and differences:
//
//	b_u, b_{p−u} = a_0 + Σ_q cos(2πqu/p)·(a_q+a_{p−q}) ± i·Σ_q σsin(2πqu/p)·(a_q−a_{p−q})
//
// with σ = −1 forward and +1 inverse: about a quarter of a direct p-point
// DFT's multiplies.
func (st *mixedStage) generic(dst, src []complex128) {
	p, l, m := st.p, st.l, st.m
	lm := l * m
	h := (p - 1) / 2
	root := st.root
	var sum, dif [maxRadix / 2]complex128
	var a [maxRadix]complex128
	for j := 0; j < l; j++ {
		tw := st.tw[j*(p-1) : (j+1)*(p-1)]
		for k := 0; k < m; k++ {
			in := j*p*m + k
			for v := 0; v < p; v++ {
				a[v] = src[in+v*m]
			}
			if j > 0 {
				for v := 1; v < p; v++ {
					a[v] *= tw[v-1]
				}
			}
			a0, dc := a[0], a[0]
			for q := 1; q <= h; q++ {
				sum[q-1], dif[q-1] = a[q]+a[p-q], a[q]-a[p-q]
				dc += sum[q-1]
			}
			out := j*m + k
			dst[out] = dc
			for u := 1; u <= h; u++ {
				re, im := real(a0), imag(a0)
				var sr, si float64
				idx := 0
				for q := 0; q < h; q++ {
					if idx += u; idx >= p {
						idx -= p
					}
					c, s := real(root[idx]), imag(root[idx])
					re += c * real(sum[q])
					im += c * imag(sum[q])
					sr += s * real(dif[q])
					si += s * imag(dif[q])
				}
				dst[out+u*lm] = complex(re-si, im+sr)
				dst[out+(p-u)*lm] = complex(re+si, im-sr)
			}
		}
	}
}
