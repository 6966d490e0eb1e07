// Package svm implements the classifiers EchoImage authenticates with
// (§V-E): a from-scratch SMO solver for soft-margin C-SVC with one-vs-one
// multi-class voting, and Support Vector Domain Description (SVDD, Tax &
// Duin) for one-class spoofer rejection. The RBF kernel is the only one
// the system needs.
package svm

import (
	"fmt"
	"math"
)

// Kernel evaluates a Mercer kernel between feature vectors.
type Kernel interface {
	// Eval returns k(a, b). Implementations may assume len(a) == len(b).
	Eval(a, b []float64) float64
	// String describes the kernel for model summaries.
	String() string
}

// RBF is the Gaussian kernel exp(-gamma·‖a-b‖²).
type RBF struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// String implements Kernel.
func (k RBF) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// GammaScale returns the scikit-learn-style "scale" heuristic for the RBF
// gamma: 1 / (dim · variance), where variance is the pooled per-component
// variance of the training set. Degenerate inputs fall back to 1/dim.
func GammaScale(xs [][]float64) float64 {
	if len(xs) == 0 || len(xs[0]) == 0 {
		return 1
	}
	dim := len(xs[0])
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		for _, v := range x {
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance <= 1e-12 {
		return 1 / float64(dim)
	}
	return 1 / (float64(dim) * variance)
}

// gram precomputes the full kernel matrix for a training set.
func gram(k Kernel, xs [][]float64) []float64 {
	n := len(xs)
	g := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Eval(xs[i], xs[j])
			g[i*n+j] = v
			g[j*n+i] = v
		}
	}
	return g
}
