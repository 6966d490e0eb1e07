package svm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func gauss2(rng *rand.Rand, cx, cy, std float64) []float64 {
	return []float64{cx + rng.NormFloat64()*std, cy + rng.NormFloat64()*std}
}

func TestBinarySVCSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []int
	for i := 0; i < 60; i++ {
		xs = append(xs, gauss2(rng, 2, 2, 0.3))
		ys = append(ys, 1)
		xs = append(xs, gauss2(rng, -2, -2, 0.3))
		ys = append(ys, -1)
	}
	m, err := TrainBinary(RBF{Gamma: 0.5}, xs, ys, DefaultSVCConfig())
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	for i, x := range xs {
		if got := m.Predict(x); got != ys[i] {
			t.Fatalf("sample %d: predicted %d, want %d", i, got, ys[i])
		}
	}
	// Fresh points from the same clusters.
	for i := 0; i < 50; i++ {
		if m.Predict(gauss2(rng, 2, 2, 0.3)) != 1 {
			t.Errorf("fresh positive %d misclassified", i)
		}
		if m.Predict(gauss2(rng, -2, -2, 0.3)) != -1 {
			t.Errorf("fresh negative %d misclassified", i)
		}
	}
}

func TestBinarySVCOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	var ys []int
	for i := 0; i < 100; i++ {
		xs = append(xs, gauss2(rng, 1, 0, 1.0))
		ys = append(ys, 1)
		xs = append(xs, gauss2(rng, -1, 0, 1.0))
		ys = append(ys, -1)
	}
	m, err := TrainBinary(RBF{Gamma: 0.5}, xs, ys, SVCConfig{C: 1, Tol: 1e-3})
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	correct := 0
	for i := 0; i < 400; i++ {
		if m.Predict(gauss2(rng, 1, 0, 1.0)) == 1 {
			correct++
		}
		if m.Predict(gauss2(rng, -1, 0, 1.0)) == -1 {
			correct++
		}
	}
	acc := float64(correct) / 800
	if acc < 0.75 {
		t.Errorf("overlapping-cluster accuracy %.3f below Bayes-adjacent 0.75", acc)
	}
}

func TestBinarySVCValidation(t *testing.T) {
	k := RBF{Gamma: 1}
	if _, err := TrainBinary(k, nil, nil, DefaultSVCConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	xs := [][]float64{{1}, {2}}
	if _, err := TrainBinary(k, xs, []int{1, 1}, DefaultSVCConfig()); err == nil {
		t.Error("single-class training set accepted")
	}
	if _, err := TrainBinary(k, xs, []int{1, 0}, DefaultSVCConfig()); err == nil {
		t.Error("label 0 accepted")
	}
	if _, err := TrainBinary(k, xs, []int{1}, DefaultSVCConfig()); err == nil {
		t.Error("mismatched label count accepted")
	}
	if _, err := TrainBinary(k, xs, []int{1, -1}, SVCConfig{C: -1}); err == nil {
		t.Error("negative C accepted")
	}
}

// TestBinarySVCKKT verifies the trained model respects the KKT optimality
// structure: free support vectors sit on the margin |f(x)| ≈ 1.
func TestBinarySVCKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []int
	for i := 0; i < 40; i++ {
		xs = append(xs, gauss2(rng, 1.5, 1.5, 0.5))
		ys = append(ys, 1)
		xs = append(xs, gauss2(rng, -1.5, -1.5, 0.5))
		ys = append(ys, -1)
	}
	cfg := SVCConfig{C: 10, Tol: 1e-5}
	m, err := TrainBinary(RBF{Gamma: 0.5}, xs, ys, cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	for i, sv := range m.svX {
		a := math.Abs(m.svCoef[i])
		if a > 1e-6 && a < cfg.C-1e-6 { // free SV
			f := m.Decision(sv)
			if math.Abs(math.Abs(f)-1) > 0.05 {
				t.Errorf("free SV %d: |f| = %.4f, want ≈ 1", i, math.Abs(f))
			}
		}
	}
}

func TestSVDDAcceptsTargetRejectsOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	for i := 0; i < 80; i++ {
		xs = append(xs, gauss2(rng, 0, 0, 0.5))
	}
	m, err := TrainSVDD(RBF{Gamma: 1}, xs, DefaultSVDDConfig())
	if err != nil {
		t.Fatalf("TrainSVDD: %v", err)
	}
	accepted := 0
	for i := 0; i < 200; i++ {
		if m.Accept(gauss2(rng, 0, 0, 0.5)) {
			accepted++
		}
	}
	if frac := float64(accepted) / 200; frac < 0.85 {
		t.Errorf("target acceptance %.3f below 0.85", frac)
	}
	rejected := 0
	for i := 0; i < 200; i++ {
		if !m.Accept(gauss2(rng, 5, 5, 0.5)) {
			rejected++
		}
	}
	if frac := float64(rejected) / 200; frac < 0.99 {
		t.Errorf("outlier rejection %.3f below 0.99", frac)
	}
}

// TestSVDDAlphaSimplex checks the Σα = 1, 0 ≤ α ≤ C dual constraints hold
// at the solution.
func TestSVDDAlphaSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	for i := 0; i < 50; i++ {
		xs = append(xs, gauss2(rng, 1, -1, 0.7))
	}
	cfg := SVDDConfig{Nu: 0.1, Tol: 1e-6}
	m, err := TrainSVDD(RBF{Gamma: 0.8}, xs, cfg)
	if err != nil {
		t.Fatalf("TrainSVDD: %v", err)
	}
	c := 1 / (cfg.Nu * float64(len(xs)))
	var sum float64
	for _, a := range m.svAlpha {
		if a < -1e-12 || a > c+1e-9 {
			t.Errorf("alpha %g outside [0, %g]", a, c)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("Σα = %g, want 1", sum)
	}
}

func TestSVDDValidation(t *testing.T) {
	k := RBF{Gamma: 1}
	if _, err := TrainSVDD(k, nil, DefaultSVDDConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := TrainSVDD(k, [][]float64{{1}}, SVDDConfig{Nu: 0}); err == nil {
		t.Error("nu=0 accepted")
	}
	if _, err := TrainSVDD(k, [][]float64{{1}}, SVDDConfig{Nu: 1.5}); err == nil {
		t.Error("nu>1 accepted")
	}
}

func TestMultiClassThreeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	centers := [][2]float64{{3, 0}, {-3, 0}, {0, 4}}
	var xs [][]float64
	var ys []int
	for c, ctr := range centers {
		for i := 0; i < 40; i++ {
			xs = append(xs, gauss2(rng, ctr[0], ctr[1], 0.5))
			ys = append(ys, c+10)
		}
	}
	m, err := TrainMultiClass(RBF{Gamma: 0.5}, xs, ys, DefaultSVCConfig())
	if err != nil {
		t.Fatalf("TrainMultiClass: %v", err)
	}
	if got := m.Classes(); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("Classes() = %v, want [10 11 12]", got)
	}
	correct := 0
	total := 0
	for c, ctr := range centers {
		for i := 0; i < 100; i++ {
			if m.Predict(gauss2(rng, ctr[0], ctr[1], 0.5)) == c+10 {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.97 {
		t.Errorf("multi-class accuracy %.3f below 0.97", acc)
	}
}

func TestMultiClassValidation(t *testing.T) {
	k := RBF{Gamma: 1}
	if _, err := TrainMultiClass(k, [][]float64{{1}}, []int{1}, DefaultSVCConfig()); err == nil {
		t.Error("single-class multi-class accepted")
	}
	if _, err := TrainMultiClass(k, [][]float64{{1}, {2}}, []int{1}, DefaultSVCConfig()); err == nil {
		t.Error("mismatched labels accepted")
	}
}

// TestRBFKernelProperties property-checks the RBF kernel: symmetric,
// bounded by k(x,x)=1, and positive.
func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 0.7}
	squash := func(v float64) float64 {
		// Bound testing/quick's full-range float64s to a sane domain.
		return 2 * math.Tanh(v/1e300)
	}
	f := func(a, b [4]float64) bool {
		av := make([]float64, 4)
		bv := make([]float64, 4)
		for i := range av {
			av[i] = squash(a[i])
			bv[i] = squash(b[i])
		}
		kab := k.Eval(av, bv)
		kba := k.Eval(bv, av)
		if math.Abs(kab-kba) > 1e-12 {
			return false
		}
		if kab <= 0 || kab > 1+1e-12 {
			return false
		}
		return math.Abs(k.Eval(av, av)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGammaScale sanity-checks the variance heuristic.
func TestGammaScale(t *testing.T) {
	if g := GammaScale(nil); g != 1 {
		t.Errorf("GammaScale(nil) = %g, want 1", g)
	}
	xs := [][]float64{{0, 0}, {0, 0}}
	if g := GammaScale(xs); g != 0.5 {
		t.Errorf("GammaScale(constant) = %g, want 1/dim = 0.5", g)
	}
	rng := rand.New(rand.NewSource(7))
	var big [][]float64
	for i := 0; i < 200; i++ {
		big = append(big, []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2})
	}
	g := GammaScale(big)
	// variance ≈ 4, dim = 2 → gamma ≈ 1/8.
	if g < 0.08 || g > 0.2 {
		t.Errorf("GammaScale = %g, want ≈ 0.125", g)
	}
}

// TestTrainingDeterministic checks that equal training data yields equal
// models — the whole pipeline depends on reproducibility.
func TestTrainingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var ys []int
	for i := 0; i < 40; i++ {
		xs = append(xs, gauss2(rng, 1, 1, 0.5))
		ys = append(ys, 1)
		xs = append(xs, gauss2(rng, -1, -1, 0.5))
		ys = append(ys, -1)
	}
	a, err := TrainBinary(RBF{Gamma: 0.5}, xs, ys, DefaultSVCConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainBinary(RBF{Gamma: 0.5}, xs, ys, DefaultSVCConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSV() != b.NumSV() || a.bias != b.bias {
		t.Errorf("retraining differs: %d/%g vs %d/%g", a.NumSV(), a.bias, b.NumSV(), b.bias)
	}
	probe := gauss2(rng, 0, 0, 2)
	if a.Decision(probe) != b.Decision(probe) {
		t.Error("decision values differ across retrains")
	}

	s1, err := TrainSVDD(RBF{Gamma: 0.5}, xs, DefaultSVDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := TrainSVDD(RBF{Gamma: 0.5}, xs, DefaultSVDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Radius2() != s2.Radius2() || s1.Distance2(probe) != s2.Distance2(probe) {
		t.Error("SVDD retraining differs")
	}
}
