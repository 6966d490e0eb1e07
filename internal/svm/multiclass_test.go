package svm

import (
	"math/rand"
	"testing"
)

// TestPredictAmongAllClassesMatchesPredict verifies the shortlist
// re-ranker's restricted vote: given every class it agrees with the full
// Predict, and given a pair it returns one of that pair.
func TestPredictAmongAllClassesMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	centers := [][2]float64{{2, 0}, {-2, 0}, {0, 3}, {0, -3}}
	var xs [][]float64
	var ys []int
	for c, ctr := range centers {
		for i := 0; i < 25; i++ {
			xs = append(xs, []float64{ctr[0] + rng.NormFloat64()*0.4, ctr[1] + rng.NormFloat64()*0.4})
			ys = append(ys, c+1)
		}
	}
	m, err := TrainMultiClass(RBF{Gamma: 0.5}, xs, ys, DefaultSVCConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := m.Classes()
	for i := 0; i < 60; i++ {
		x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		if got, want := m.PredictAmong(x, all), m.Predict(x); got != want {
			t.Fatalf("PredictAmong(all) = %d, Predict = %d at %v", got, want, x)
		}
		if got := m.PredictAmong(x, []int{2, 4}); got != 2 && got != 4 {
			t.Fatalf("PredictAmong({2, 4}) = %d at %v", got, x)
		}
	}
}

// TestSVDDScoreSign verifies Score is positive inside and negative outside
// the decision boundary, consistent with Accept.
func TestSVDDScoreSign(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var xs [][]float64
	for i := 0; i < 60; i++ {
		xs = append(xs, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
	}
	m, err := TrainSVDD(RBF{Gamma: 1}, xs, DefaultSVDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		if m.Accept(x) != (m.Score(x) >= 0) {
			t.Fatalf("Accept and Score disagree at %v: accept=%v score=%g", x, m.Accept(x), m.Score(x))
		}
	}
	if m.Radius2() <= 0 {
		t.Errorf("radius² %g", m.Radius2())
	}
	if m.NumSV() < 1 {
		t.Error("no support vectors")
	}
	if m.Iterations() < 1 {
		t.Error("no solver iterations recorded")
	}
}
