package features

import (
	"math/rand"
	"sync"
	"testing"

	"echoimage/internal/aimage"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestExtractRepeatedCallsStable guards the scratch-buffer pool: repeated
// and interleaved extractions must not leak state between calls.
func TestExtractRepeatedCallsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ext, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*aimage.Image, 3)
	wants := make([][]float64, len(inputs))
	for i := range inputs {
		inputs[i] = randImage(rng, 36+2*i, 36)
		wants[i] = ext.Extract(inputs[i])
	}
	for rep := 0; rep < 5; rep++ {
		for i := range inputs {
			got := ext.Extract(inputs[i])
			for k := range got {
				if got[k] != wants[i][k] {
					t.Fatalf("rep %d image %d: feature %d drifted", rep, i, k)
				}
			}
		}
	}
}

// TestExtractConcurrentCallers runs one extractor from many goroutines;
// -race verifies the shared pool, and the outputs must stay bitwise equal.
func TestExtractConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ext, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(rng, 48, 48)
	want := ext.Extract(img)
	var wg sync.WaitGroup
	fail := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := ext.Extract(img)
				for i := range got {
					if got[i] != want[i] {
						fail <- g
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for g := range fail {
		t.Errorf("goroutine %d observed corrupted features", g)
	}
}

// TestExtractSteadyStateAllocs checks that a warm Extract allocates only
// its resized input (image and pixels) and its output vector: the
// workspace, padded input planes included, comes from the pool. The race
// detector makes sync.Pool drop a share of its items on purpose, so the
// count is checked only without it.
func TestExtractSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ext, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(rand.New(rand.NewSource(34)), 36, 36)
	ext.Extract(img)
	if a := testing.AllocsPerRun(50, func() { ext.Extract(img) }); a != 3 {
		t.Errorf("Extract allocates %v times per image, want 3", a)
	}
}
