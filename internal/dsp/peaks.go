package dsp

// Peak is a local maximum found by FindPeaks: the sample index and the value
// at that index.
type Peak struct {
	Index int
	Value float64
}

// FindPeaks searches x for local maxima matching the paper's MaxSet
// definition (§V-B): a sample at index i is a peak when its value exceeds
// every other sample within minDist samples on both sides and is strictly
// greater than threshold. Peaks are returned in increasing index order.
//
// Plateaus report their first sample. minDist < 1 is treated as 1.
func FindPeaks(x []float64, minDist int, threshold float64) []Peak {
	if minDist < 1 {
		minDist = 1
	}
	n := len(x)
	var peaks []Peak
	for i := 0; i < n; i++ {
		v := x[i]
		if v <= threshold {
			continue
		}
		lo := i - minDist
		if lo < 0 {
			lo = 0
		}
		hi := i + minDist
		if hi > n-1 {
			hi = n - 1
		}
		isMax := true
		for j := lo; j <= hi; j++ {
			if j == i {
				continue
			}
			// Strict inequality on the left neighbourhood and >= on the
			// right makes plateau handling deterministic (first sample
			// wins) while still rejecting equal-height neighbours before i.
			if j < i && x[j] >= v {
				isMax = false
				break
			}
			if j > i && x[j] > v {
				isMax = false
				break
			}
		}
		if isMax {
			peaks = append(peaks, Peak{Index: i, Value: v})
		}
	}
	return peaks
}

// ArgMax returns the index of the largest value in x, or -1 for an empty
// slice. Ties resolve to the first occurrence.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
