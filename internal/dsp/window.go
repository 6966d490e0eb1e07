package dsp

import "math"

// Hann returns an n-point Hann window, 0.5·(1 − cos(2πi/(n−1))).
func Hann(n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = 0.5 - 0.5*math.Cos(x)
	}
	return w
}
