// Package features extracts fixed-length embeddings from acoustic images.
//
// The paper transfers a pre-trained VGGish CNN and uses its 5th pooling
// layer (7×7×512 = 25088 features) as a frozen feature extractor. No
// pre-trained weights exist in a stdlib-only Go environment, so this
// package implements the closest behavioural equivalent: a frozen,
// deterministically seeded random-convolution network ("VGGishLite") with
// the same usage pattern — resize the image to the network input, run a
// frozen conv/ReLU/max-pool stack, flatten the final 7×7×C pooling output.
// Random convolutional features followed by an SVM are a well-studied
// substitute for transfer learning when training data is scarce, which is
// exactly the regime the paper targets.
package features

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"echoimage/internal/aimage"
)

// Config sizes the frozen network.
type Config struct {
	// InputSize is the square input resolution; it must be divisible by
	// 2^len(Channels) and reduce to 7 after the pooling stack for the
	// paper's 7×7×C output shape.
	InputSize int
	// Channels lists the output channel count of each conv block; each
	// block is conv3×3 → ReLU → maxpool2×2.
	Channels []int
	// Seed freezes the filter weights; equal seeds yield identical
	// networks ("the pre-trained parameters are kept frozen").
	Seed int64
	// Standardize zero-means and unit-scales each image before the conv
	// stack and L2-normalizes the output features. This discards the
	// image's absolute echo level — a discriminative, session-stable
	// biometric trait (body size, clothing reflectivity; the imager has
	// already calibrated away device gain against the direct path) — so
	// it is off by default; the scale-invariant variant exists for
	// ablation and for deployments without level calibration.
	Standardize bool
}

// DefaultConfig yields a 56→28→14→7 stack producing 7×7×32 = 1568
// features: the same spatial shape as the paper's VGGish cut, with a
// channel count sized to the synthetic workload.
func DefaultConfig() Config {
	return Config{
		InputSize: 56,
		Channels:  []int{8, 16, 32},
		Seed:      20230048, // the paper's DOI suffix, fixed forever
	}
}

// Validate checks the architecture.
func (c Config) Validate() error {
	if c.InputSize < 4 {
		return fmt.Errorf("features: input size %d too small", c.InputSize)
	}
	if len(c.Channels) == 0 {
		return fmt.Errorf("features: no conv blocks")
	}
	size := c.InputSize
	for i, ch := range c.Channels {
		if ch < 1 {
			return fmt.Errorf("features: block %d has %d channels", i, ch)
		}
		if size%2 != 0 {
			return fmt.Errorf("features: size %d not divisible by 2 at block %d", size, i)
		}
		size /= 2
	}
	return nil
}

// OutputDim returns the flattened feature dimensionality.
func (c Config) OutputDim() int {
	size := c.InputSize >> len(c.Channels)
	return size * size * c.Channels[len(c.Channels)-1]
}

// convBlock is one frozen conv3×3 + bias layer.
type convBlock struct {
	inCh, outCh int
	// weights[o][i][ky*3+kx]
	weights [][][]float64
	bias    []float64
}

// Extractor is the frozen network. It is safe for concurrent use once
// constructed: the network state is read-only and the workspace pool is
// synchronized. Extract runs on the calling goroutine; callers that
// extract many images run one image per goroutine.
type Extractor struct {
	cfg    Config
	blocks []convBlock
	// workspaces recycles one *workspace per Extract call.
	workspaces sync.Pool
}

// workspace is the scratch memory of one Extract call: planes[0] is the
// input plane, planes[b+1] the output planes of block b (each block's
// planes share one backing slice), padded[b] block b's input planes
// inside a one-pixel zero border, and conv holds one output channel's
// pre-pool convolution. Its shape depends only on the Config.
type workspace struct {
	planes [][][]float64
	padded [][][]float64
	conv   []float64
}

// NewExtractor builds the frozen network from the config's seed.
func NewExtractor(cfg Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	blocks := make([]convBlock, len(cfg.Channels))
	inCh := 1
	for b, outCh := range cfg.Channels {
		blk := convBlock{
			inCh:    inCh,
			outCh:   outCh,
			weights: make([][][]float64, outCh),
			bias:    make([]float64, outCh),
		}
		// He-style initialization keeps activations in range through the
		// ReLU stack.
		std := math.Sqrt(2 / float64(inCh*9))
		for o := 0; o < outCh; o++ {
			blk.weights[o] = make([][]float64, inCh)
			for i := 0; i < inCh; i++ {
				k := make([]float64, 9)
				for j := range k {
					k[j] = rng.NormFloat64() * std
				}
				blk.weights[o][i] = k
			}
			blk.bias[o] = rng.NormFloat64() * 0.01
		}
		blocks[b] = blk
		inCh = outCh
	}
	e := &Extractor{cfg: cfg, blocks: blocks}
	e.workspaces.New = func() any { return e.newWorkspace() }
	return e, nil
}

// newWorkspace allocates a workspace for the extractor's network. Every
// user overwrites each element before reading it, except the padded
// planes' borders, which nothing writes after they are zeroed here; so a
// recycled workspace needs no clearing.
func (e *Extractor) newWorkspace() *workspace {
	size := e.cfg.InputSize
	ws := &workspace{
		planes: make([][][]float64, len(e.blocks)+1),
		padded: make([][][]float64, len(e.blocks)),
		conv:   make([]float64, size*size),
	}
	ws.planes[0] = [][]float64{make([]float64, size*size)}
	for b, blk := range e.blocks {
		ws.padded[b] = splitPlanes(blk.inCh, (size+2)*(size+2))
		size /= 2
		ws.planes[b+1] = splitPlanes(blk.outCh, size*size)
	}
	return ws
}

// splitPlanes returns count planes of n elements sharing one zeroed
// backing slice.
func splitPlanes(count, n int) [][]float64 {
	flat := make([]float64, count*n)
	ps := make([][]float64, count)
	for i := range ps {
		ps[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return ps
}

// Dim returns the output feature dimensionality.
func (e *Extractor) Dim() int { return e.cfg.OutputDim() }

// Extract resizes the image to the network input, runs the frozen stack and
// returns the flattened feature vector. With Standardize set, the input is
// zero-meaned/unit-scaled and the output L2-normalized (scale-invariant
// features); otherwise the image's calibrated echo level flows through.
func (e *Extractor) Extract(img *aimage.Image) []float64 {
	in := img.Resize(e.cfg.InputSize, e.cfg.InputSize)
	ws := e.workspaces.Get().(*workspace)
	defer e.workspaces.Put(ws)
	plane := ws.planes[0][0]
	if e.cfg.Standardize {
		mean := in.Mean()
		var variance float64
		for _, v := range in.Pix {
			d := v - mean
			variance += d * d
		}
		variance /= float64(len(in.Pix))
		std := math.Sqrt(variance)
		if std > 0 {
			inv := 1 / std
			for i, v := range in.Pix {
				plane[i] = (v - mean) * inv
			}
		} else {
			for i := range plane {
				plane[i] = 0
			}
		}
	} else {
		copy(plane, in.Pix)
	}

	size := e.cfg.InputSize
	for b, blk := range e.blocks {
		blk.forward(ws.planes[b], size, ws.planes[b+1], ws.conv, ws.padded[b])
		size /= 2
	}

	out := make([]float64, 0, e.Dim())
	for _, p := range ws.planes[len(e.blocks)] {
		out = append(out, p...)
	}
	if e.cfg.Standardize {
		var norm float64
		for _, v := range out {
			norm += v * v
		}
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for i := range out {
				out[i] *= inv
			}
		}
	}
	return out
}

// forward applies conv3×3 (same padding) + ReLU + maxpool2×2 to all input
// planes of the given square size, writing the outCh planes of size/2
// into out; conv is size×size scratch and padded holds one
// (size+2)×(size+2) plane per input channel whose one-pixel border is
// zero. Each input channel is copied into the interior of its padded
// plane once, and every output channel reads it from there.
func (b convBlock) forward(in [][]float64, size int, out [][]float64, conv []float64, padded [][]float64) {
	w := size + 2
	for ic, src := range in {
		for y := 0; y < size; y++ {
			copy(padded[ic][(y+1)*w+1:(y+1)*w+1+size], src[y*size:(y+1)*size])
		}
	}
	for o := range out {
		b.forwardOne(padded, size, o, conv, out[o])
	}
}

// forwardOne computes output channel o of a conv block into pooled, using
// conv as its size×size pre-pool plane. in holds the input channels inside
// their zero borders, so every pixel runs the same nine taps over three
// pre-sliced source rows with the weights in locals, and no tap is tested
// against the image border.
//
// A pixel's taps are summed into a zeroed accumulator in ky-major,
// kx-minor order and that sum is added to the output, as in a
// bounds-tested loop that skips the taps outside the image. A border tap
// adds +0 × k to the accumulator, and the weights k are finite, so it
// adds ±0, which leaves the accumulator unchanged: the accumulator starts
// at +0 and a sum of floats is −0 only when both terms are −0, so it
// never becomes −0, and ±Inf or NaN plus ±0 is itself. The output bits
// therefore match the bounds-tested loop's for every input, non-finite
// pixels included.
func (b convBlock) forwardOne(in [][]float64, size, o int, conv, pooled []float64) {
	half := size / 2
	w := size + 2
	conv = conv[:size*size]
	for i := range conv {
		conv[i] = b.bias[o]
	}
	for ic, src := range in {
		k := b.weights[o][ic]
		k0, k1, k2 := k[0], k[1], k[2]
		k3, k4, k5 := k[3], k[4], k[5]
		k6, k7, k8 := k[6], k[7], k[8]
		for y := 0; y < size; y++ {
			// Equal-length rows let the compiler drop the index checks.
			out := conv[y*size : (y+1)*size]
			up, mid, dn := src[y*w:(y+1)*w], src[(y+1)*w:(y+2)*w], src[(y+2)*w:(y+3)*w]
			u0, u1, u2 := up[:len(out)], up[1:][:len(out)], up[2:][:len(out)]
			m0, m1, m2 := mid[:len(out)], mid[1:][:len(out)], mid[2:][:len(out)]
			d0, d1, d2 := dn[:len(out)], dn[1:][:len(out)], dn[2:][:len(out)]
			for x := range out {
				var s float64
				s += u0[x] * k0
				s += u1[x] * k1
				s += u2[x] * k2
				s += m0[x] * k3
				s += m1[x] * k4
				s += m2[x] * k5
				s += d0[x] * k6
				s += d1[x] * k7
				s += d2[x] * k8
				out[x] += s
			}
		}
	}
	// ReLU + 2×2 max pool.
	for y := 0; y < half; y++ {
		for x := 0; x < half; x++ {
			m := 0.0
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					v := conv[(2*y+dy)*size+2*x+dx]
					if v > m {
						m = v
					}
				}
			}
			pooled[y*half+x] = m
		}
	}
}
