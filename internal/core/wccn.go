package core

import (
	"fmt"
	"math"
	"math/rand"
)

// Whitener suppresses the dominant within-class (nuisance) directions of a
// feature space — within-class covariance normalization (WCCN), the
// standard session-compensation technique in speaker verification. The
// enrollment set's within-class residuals (sample minus its class mean)
// define the nuisance subspace: postural sway, breathing phase, session
// placement. Shrinking those directions leaves inter-user structure
// dominant, which both the SVDD gate's isotropic kernel distance and the
// identification SVM benefit from.
type Whitener struct {
	dirs  [][]float64 // top within-class eigendirections, orthonormal
	scale []float64   // per-direction shrink factor in (0, 1]
	dim   int
}

// FitWhitener estimates the top-k within-class directions from labelled
// feature vectors via power iteration with deflation, and derives shrink
// factors that flatten their variance to the residual level. Classes with a
// single sample contribute nothing. k is clamped to the sample count.
func FitWhitener(xs [][]float64, labels []int, k int) (*Whitener, error) {
	n := len(xs)
	if n == 0 || len(labels) != n {
		return nil, fmt.Errorf("core: whitener needs labelled samples (%d vs %d)", n, len(labels))
	}
	dim := len(xs[0])

	// Within-class residuals.
	sums := make(map[int][]float64)
	counts := make(map[int]int)
	for i, x := range xs {
		s := sums[labels[i]]
		if s == nil {
			s = make([]float64, dim)
			sums[labels[i]] = s
		}
		for j, v := range x {
			s[j] += v
		}
		counts[labels[i]]++
	}
	var residuals [][]float64
	for i, x := range xs {
		c := counts[labels[i]]
		if c < 2 {
			continue
		}
		mean := sums[labels[i]]
		r := make([]float64, dim)
		for j, v := range x {
			r[j] = v - mean[j]/float64(c)
		}
		residuals = append(residuals, r)
	}
	if len(residuals) < 2 {
		// Degenerate: nothing to whiten; identity transform.
		return &Whitener{dim: dim}, nil
	}
	if k > len(residuals)-1 {
		k = len(residuals) - 1
	}
	if k < 1 {
		return &Whitener{dim: dim}, nil
	}

	var totalVar float64
	for _, r := range residuals {
		for _, v := range r {
			totalVar += v * v
		}
	}
	totalVar /= float64(len(residuals))

	w := &Whitener{dim: dim}
	rng := rand.New(rand.NewSource(1))
	work := make([][]float64, len(residuals))
	for i, r := range residuals {
		c := make([]float64, dim)
		copy(c, r)
		work[i] = c
	}
	var explained float64
	for comp := 0; comp < k; comp++ {
		v, lambda := topEigen(work, rng)
		if lambda <= 1e-12 {
			break
		}
		w.dirs = append(w.dirs, v)
		explained += lambda
		// Deflate: remove the component from every residual.
		for _, r := range work {
			var dot float64
			for j := range r {
				dot += r[j] * v[j]
			}
			for j := range r {
				r[j] -= dot * v[j]
			}
		}
	}
	// Shrink each kept direction's standard deviation to the average
	// residual (post-deflation) level.
	rest := (totalVar - explained) / math.Max(1, float64(dim-len(w.dirs)))
	if rest < 1e-12 {
		rest = 1e-12
	}
	// Per-direction variances against the original residuals give the
	// shrink factors.
	w.scale = make([]float64, len(w.dirs))
	for i := range w.scale {
		w.scale[i] = 1
	}
	for i, v := range w.dirs {
		var varI float64
		for _, r := range residuals {
			var dot float64
			for j := range r {
				dot += r[j] * v[j]
			}
			varI += dot * dot
		}
		varI /= float64(len(residuals))
		if varI > rest {
			w.scale[i] = math.Sqrt(rest / varI)
		}
	}
	return w, nil
}

// topEigen returns the dominant eigenvector and eigenvalue of the sample
// covariance of rows via power iteration (the covariance matrix itself is
// never materialized).
func topEigen(rows [][]float64, rng *rand.Rand) ([]float64, float64) {
	if len(rows) == 0 {
		return nil, 0
	}
	dim := len(rows[0])
	v := make([]float64, dim)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	normalize(v)
	tmp := make([]float64, dim)
	var lambda float64
	for iter := 0; iter < 60; iter++ {
		for j := range tmp {
			tmp[j] = 0
		}
		for _, r := range rows {
			var dot float64
			for j := range r {
				dot += r[j] * v[j]
			}
			for j := range r {
				tmp[j] += dot * r[j]
			}
		}
		inv := 1 / float64(len(rows))
		for j := range tmp {
			tmp[j] *= inv
		}
		lambda = norm(tmp)
		if lambda <= 1e-15 {
			return v, 0
		}
		for j := range v {
			v[j] = tmp[j] / lambda
		}
	}
	return v, lambda
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n > 0 {
		inv := 1 / n
		for i := range x {
			x[i] *= inv
		}
	}
}

// Apply shrinks x along the nuisance directions and L2-renormalizes,
// returning a new vector.
func (w *Whitener) Apply(x []float64) []float64 {
	dst := make([]float64, len(x))
	copy(dst, x)
	for i, v := range w.dirs {
		var dot float64
		for j := range x {
			dot += x[j] * v[j]
		}
		adj := (w.scale[i] - 1) * dot
		for j := range dst {
			dst[j] += adj * v[j]
		}
	}
	normalize(dst)
	return dst
}

// NumDirections returns how many nuisance directions are suppressed.
func (w *Whitener) NumDirections() int { return len(w.dirs) }
