package svm

import (
	"fmt"
	"sort"
)

// MultiClass is a one-vs-one multi-class SVM: one binary classifier per
// unordered class pair, combined by majority vote with decision-value
// tie-breaking (the libsvm construction).
type MultiClass struct {
	classes []int
	pairs   []pairModel
}

type pairModel struct {
	a, b  int // class labels; the binary model votes a on +1
	model *BinarySVC
}

// TrainMultiClass fits the one-vs-one ensemble. Labels may be any ints;
// at least two distinct classes are required.
func TrainMultiClass(k Kernel, xs [][]float64, labels []int, cfg SVCConfig) (*MultiClass, error) {
	if len(xs) != len(labels) {
		return nil, fmt.Errorf("svm: %d labels for %d samples", len(labels), len(xs))
	}
	byClass := make(map[int][][]float64)
	for i, x := range xs {
		byClass[labels[i]] = append(byClass[labels[i]], x)
	}
	if len(byClass) < 2 {
		return nil, fmt.Errorf("svm: multi-class needs >= 2 classes, got %d", len(byClass))
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)

	mc := &MultiClass{classes: classes}
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			a, b := classes[i], classes[j]
			var px [][]float64
			var py []int
			px = append(px, byClass[a]...)
			for range byClass[a] {
				py = append(py, 1)
			}
			px = append(px, byClass[b]...)
			for range byClass[b] {
				py = append(py, -1)
			}
			m, err := TrainBinary(k, px, py, cfg)
			if err != nil {
				return nil, fmt.Errorf("svm: pair (%d, %d): %w", a, b, err)
			}
			mc.pairs = append(mc.pairs, pairModel{a: a, b: b, model: m})
		}
	}
	return mc, nil
}

// Classes returns the sorted class labels.
func (m *MultiClass) Classes() []int {
	out := make([]int, len(m.classes))
	copy(out, m.classes)
	return out
}

// PredictAmong restricts the one-vs-one vote to the given candidate
// classes: only duels where both classes are candidates are evaluated, so
// re-ranking an ANN shortlist of s candidates costs O(s²) decisions
// instead of the full O(n²) scan. Candidates the ensemble does not know
// are ignored; with one known candidate it is returned directly, and with
// none PredictAmong falls back to the full Predict.
func (m *MultiClass) PredictAmong(x []float64, classes []int) int {
	in := make(map[int]bool, len(classes))
	known := 0
	var only int
	for _, c := range classes {
		if !in[c] && m.hasClass(c) {
			known++
			only = c
		}
		in[c] = true
	}
	if known == 0 {
		return m.Predict(x)
	}
	if known == 1 {
		return only
	}
	votes := make(map[int]int, known)
	margin := make(map[int]float64, known)
	for _, p := range m.pairs {
		if !in[p.a] || !in[p.b] {
			continue
		}
		d := p.model.Decision(x)
		if d >= 0 {
			votes[p.a]++
			margin[p.a] += d
		} else {
			votes[p.b]++
			margin[p.b] -= d
		}
	}
	best, haveBest := 0, false
	for _, c := range m.classes {
		if !in[c] {
			continue
		}
		if !haveBest || votes[c] > votes[best] || (votes[c] == votes[best] && margin[c] > margin[best]) {
			best, haveBest = c, true
		}
	}
	return best
}

func (m *MultiClass) hasClass(c int) bool {
	i := sort.SearchInts(m.classes, c)
	return i < len(m.classes) && m.classes[i] == c
}

// ExtendMultiClass grows a trained ensemble with new classes without
// refitting any existing pair: for each added class it trains the pairs
// against every existing class (and the other added classes) from the
// provided per-class samples, and shares the old pair models, which are
// immutable. Registering user n+1 therefore costs O(n) binary fits
// instead of the O(n²) full rebuild. existing must provide samples for
// every class already in m (the whitened enrollment embeddings the
// caller retains); added maps each new class to its samples.
func ExtendMultiClass(m *MultiClass, k Kernel, existing map[int][][]float64, added map[int][][]float64, cfg SVCConfig) (*MultiClass, error) {
	if len(added) == 0 {
		return m, nil
	}
	for _, c := range m.classes {
		if len(existing[c]) == 0 {
			return nil, fmt.Errorf("svm: extend is missing samples for existing class %d", c)
		}
	}
	newClasses := make([]int, 0, len(added))
	for c, xs := range added {
		if m.hasClass(c) {
			return nil, fmt.Errorf("svm: class %d already trained", c)
		}
		if len(xs) == 0 {
			return nil, fmt.Errorf("svm: added class %d has no samples", c)
		}
		newClasses = append(newClasses, c)
	}
	sort.Ints(newClasses)

	classes := make([]int, 0, len(m.classes)+len(newClasses))
	classes = append(classes, m.classes...)
	classes = append(classes, newClasses...)
	sort.Ints(classes)
	ext := &MultiClass{classes: classes}
	ext.pairs = append(ext.pairs, m.pairs...)

	samples := func(c int) [][]float64 {
		if xs, ok := added[c]; ok {
			return xs
		}
		return existing[c]
	}
	trainPair := func(a, b int) error {
		var px [][]float64
		var py []int
		px = append(px, samples(a)...)
		for range samples(a) {
			py = append(py, 1)
		}
		px = append(px, samples(b)...)
		for range samples(b) {
			py = append(py, -1)
		}
		pm, err := TrainBinary(k, px, py, cfg)
		if err != nil {
			return fmt.Errorf("svm: extend pair (%d, %d): %w", a, b, err)
		}
		ext.pairs = append(ext.pairs, pairModel{a: a, b: b, model: pm})
		return nil
	}
	for i, nc := range newClasses {
		for _, oc := range m.classes {
			a, b := oc, nc
			if a > b {
				a, b = b, a
			}
			if err := trainPair(a, b); err != nil {
				return nil, err
			}
		}
		for _, nc2 := range newClasses[i+1:] {
			a, b := nc, nc2
			if a > b {
				a, b = b, a
			}
			if err := trainPair(a, b); err != nil {
				return nil, err
			}
		}
	}
	return ext, nil
}

// Predict returns the majority-vote class for x. Ties break toward the
// class with the larger accumulated decision magnitude.
func (m *MultiClass) Predict(x []float64) int {
	votes := make(map[int]int, len(m.classes))
	margin := make(map[int]float64, len(m.classes))
	for _, p := range m.pairs {
		d := p.model.Decision(x)
		if d >= 0 {
			votes[p.a]++
			margin[p.a] += d
		} else {
			votes[p.b]++
			margin[p.b] -= d
		}
	}
	best := m.classes[0]
	for _, c := range m.classes[1:] {
		if votes[c] > votes[best] || (votes[c] == votes[best] && margin[c] > margin[best]) {
			best = c
		}
	}
	return best
}
