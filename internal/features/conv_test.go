package features

import (
	"math"
	"math/rand"
	"testing"

	"echoimage/internal/aimage"
)

// refForward is the plain conv3×3 (same padding) + bias + ReLU +
// maxpool2×2 reference: every tap of every pixel is bounds-tested, taps
// are summed ky-major, kx-minor into a zeroed accumulator, and each input
// channel's sum is added to the bias-initialized output in channel order.
func refForward(b convBlock, in [][]float64, size int) [][]float64 {
	half := size / 2
	out := make([][]float64, b.outCh)
	for o := range out {
		conv := make([]float64, size*size)
		for i := range conv {
			conv[i] = b.bias[o]
		}
		for ic := 0; ic < b.inCh; ic++ {
			k := b.weights[o][ic]
			for y := 0; y < size; y++ {
				for x := 0; x < size; x++ {
					var s float64
					for ky := 0; ky < 3; ky++ {
						for kx := 0; kx < 3; kx++ {
							yy, xx := y+ky-1, x+kx-1
							if yy < 0 || yy >= size || xx < 0 || xx >= size {
								continue
							}
							s += in[ic][yy*size+xx] * k[ky*3+kx]
						}
					}
					conv[y*size+x] += s
				}
			}
		}
		pooled := make([]float64, half*half)
		for y := 0; y < half; y++ {
			for x := 0; x < half; x++ {
				m := 0.0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := conv[(2*y+dy)*size+2*x+dx]; v > m {
							m = v
						}
					}
				}
				pooled[y*half+x] = m
			}
		}
		out[o] = pooled
	}
	return out
}

// refExtract runs the whole unstandardized network through refForward.
func refExtract(e *Extractor, img *aimage.Image) []float64 {
	in := img.Resize(e.cfg.InputSize, e.cfg.InputSize)
	planes := [][]float64{in.Pix}
	size := e.cfg.InputSize
	for _, blk := range e.blocks {
		planes = refForward(blk, planes, size)
		size /= 2
	}
	var out []float64
	for _, p := range planes {
		out = append(out, p...)
	}
	return out
}

// convTestPlane fills a size×size plane in one of several regimes that
// stress the kernel's arithmetic: Gaussian, constant, all-negative,
// subnormal, a mix with signed zeros, and Gaussian with scattered ±Inf
// and NaN.
func convTestPlane(rng *rand.Rand, size, kind int) []float64 {
	p := make([]float64, size*size)
	c := rng.NormFloat64()
	for i := range p {
		switch kind {
		case 0:
			p[i] = rng.NormFloat64()
		case 1:
			p[i] = c
		case 2:
			p[i] = -math.Abs(rng.NormFloat64()) - 1e-3
		case 3:
			p[i] = float64(rng.Intn(7)-3) * 5e-324 * float64(1+rng.Intn(1<<20))
		case 5:
			p[i] = rng.NormFloat64()
			switch rng.Intn(64) {
			case 0:
				p[i] = math.Inf(1)
			case 1:
				p[i] = math.Inf(-1)
			case 2:
				p[i] = math.NaN()
			}
		default:
			switch rng.Intn(4) {
			case 0:
				p[i] = math.Copysign(0, -1)
			case 1:
				p[i] = 0
			case 2:
				p[i] = 1e-310 * rng.NormFloat64()
			default:
				p[i] = 1e3 * rng.NormFloat64()
			}
		}
	}
	return p
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestConvKernelMatchesReference checks that every conv block, edge
// pixels included, produces the bounds-tested reference loop's bits, for
// random, constant, negative, subnormal, signed-zero and non-finite
// inputs, on the default network and on a 4×4 network whose
// second block convolves a 2×2 plane with no interior at all. The output
// and scratch planes start as NaN, so a pooled pixel the kernel fails to
// write shows as a mismatch.
func TestConvKernelMatchesReference(t *testing.T) {
	tiny := Config{InputSize: 4, Channels: []int{1, 1}, Seed: 7}
	for _, cfg := range []Config{DefaultConfig(), tiny} {
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		for kind := 0; kind < 6; kind++ {
			size := cfg.InputSize
			for bi, blk := range e.blocks {
				in := make([][]float64, blk.inCh)
				for ic := range in {
					in[ic] = convTestPlane(rng, size, kind)
				}
				want := refForward(blk, in, size)
				got := make([][]float64, blk.outCh)
				for o := range got {
					got[o] = nanPlane(size / 2 * size / 2)
				}
				blk.forward(in, size, got, nanPlane(size*size), splitPlanes(blk.inCh, (size+2)*(size+2)))
				for o := range want {
					if i, ok := sameBits(got[o], want[o]); !ok {
						t.Fatalf("size %d kind %d block %d channel %d: pixel %d %v != reference %v",
							cfg.InputSize, kind, bi, o, i, got[o][i], want[o][i])
					}
				}
				size /= 2
			}

			img := aimage.New(cfg.InputSize, cfg.InputSize)
			copy(img.Pix, convTestPlane(rng, cfg.InputSize, kind))
			if i, ok := sameBits(e.Extract(img), refExtract(e, img)); !ok {
				t.Fatalf("size %d kind %d: Extract feature %d differs from reference",
					cfg.InputSize, kind, i)
			}
		}
	}
}

func nanPlane(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = math.NaN()
	}
	return p
}
