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
	"runtime"
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
	// Workers caps the per-block worker pool that fans the conv output
	// channels of Extract across goroutines; 0 means GOMAXPROCS, 1 forces
	// the sequential path. The output is identical for any value: each
	// channel's arithmetic is independent of scheduling.
	Workers int
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
// constructed: the network state is read-only and the scratch-buffer pool
// is synchronized.
type Extractor struct {
	cfg    Config
	blocks []convBlock
	// bufs recycles plane and convolution scratch buffers across Extract
	// calls and across the workers inside one call.
	bufs sync.Pool
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
	e.bufs.New = func() any {
		var buf []float64
		return &buf
	}
	return e, nil
}

// getBuf returns a pooled scratch slice of length n. Contents are
// arbitrary; every user overwrites each element before reading it (or
// zeroes explicitly). An undersized pooled buffer is left to the GC, so
// the pool converges to full-size planes instead of churning grows.
func (e *Extractor) getBuf(n int) []float64 {
	bp := e.bufs.Get().(*[]float64)
	b := *bp
	if cap(b) < n {
		b = make([]float64, n)
	}
	return b[:n]
}

// putBuf recycles a scratch slice.
func (e *Extractor) putBuf(b []float64) {
	e.bufs.Put(&b)
}

// Dim returns the output feature dimensionality.
func (e *Extractor) Dim() int { return e.cfg.OutputDim() }

// Extract resizes the image to the network input, runs the frozen stack and
// returns the flattened feature vector. With Standardize set, the input is
// zero-meaned/unit-scaled and the output L2-normalized (scale-invariant
// features); otherwise the image's calibrated echo level flows through.
func (e *Extractor) Extract(img *aimage.Image) []float64 {
	in := img.Resize(e.cfg.InputSize, e.cfg.InputSize)
	plane := e.getBuf(len(in.Pix))
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

	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := e.cfg.InputSize
	planes := [][]float64{plane}
	for _, blk := range e.blocks {
		next := e.forward(blk, planes, size, workers)
		for _, p := range planes {
			e.putBuf(p)
		}
		planes = next
		size /= 2
	}

	out := make([]float64, 0, e.Dim())
	for _, p := range planes {
		out = append(out, p...)
		e.putBuf(p)
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
// planes of the given square size, returning outCh planes of size/2. The
// output channels are independent, so they fan out over a bounded worker
// pool; every scratch and output plane comes from the extractor's pool.
func (e *Extractor) forward(b convBlock, in [][]float64, size, workers int) [][]float64 {
	out := make([][]float64, b.outCh)
	if workers > b.outCh {
		workers = b.outCh
	}
	if workers <= 1 {
		for o := 0; o < b.outCh; o++ {
			out[o] = e.forwardOne(b, in, size, o)
		}
		return out
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ch {
				out[o] = e.forwardOne(b, in, size, o)
			}
		}()
	}
	for o := 0; o < b.outCh; o++ {
		ch <- o
	}
	close(ch)
	wg.Wait()
	return out
}

// forwardOne computes one output channel of a conv block.
func (e *Extractor) forwardOne(b convBlock, in [][]float64, size, o int) []float64 {
	half := size / 2
	conv := e.getBuf(size * size)
	for i := range conv {
		conv[i] = b.bias[o]
	}
	for ic := 0; ic < b.inCh; ic++ {
		src := in[ic]
		k := b.weights[o][ic]
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				var s float64
				for ky := -1; ky <= 1; ky++ {
					yy := y + ky
					if yy < 0 || yy >= size {
						continue
					}
					row := yy * size
					kRow := (ky + 1) * 3
					for kx := -1; kx <= 1; kx++ {
						xx := x + kx
						if xx < 0 || xx >= size {
							continue
						}
						s += src[row+xx] * k[kRow+kx+1]
					}
				}
				conv[y*size+x] += s
			}
		}
	}
	// ReLU + 2×2 max pool.
	pooled := e.getBuf(half * half)
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
	e.putBuf(conv)
	return pooled
}
