// Scale-identification study: how far past the paper's 12-user roster the
// embedding + ANN identification engine carries. The paper's exhaustive
// one-vs-one SVM scan is linear-to-quadratic in the registered-user count;
// the HNSW shortlist is polylogarithmic. This experiment synthesizes an
// enrollee population from internal/body profiles (10k–1M), indexes their
// embeddings, and measures ANN lookup latency, exact-scan latency and
// shortlist recall.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"echoimage/internal/body"
	"echoimage/internal/index"
)

// ScaleIDConfig sizes the synthetic-enrollee identification study.
type ScaleIDConfig struct {
	// Enrollees is the registered-user count.
	Enrollees int
	// PerUser is the number of enrollment embeddings per user.
	PerUser int
	// Dim is the embedding dimensionality.
	Dim int
	// LatentDim is the intrinsic dimensionality of the population: each
	// enrollee is a point in a LatentDim-dimensional anatomical factor
	// space, mapped into Dim-dimensional embedding space through a fixed
	// linear map — body shape varies along tens of latent factors, not
	// along every embedding coordinate independently. 0 means 16.
	LatentDim int
	// Queries is how many probe lookups are timed.
	Queries int
	// Shortlist is k for both the ANN search and the exact scan.
	Shortlist int
	// WithinJitter is the within-user deviation of a probe from the
	// user's identity template, before re-normalization (between-user
	// templates are unit Gaussians, so ~1.4 apart; 0 means 0.15).
	WithinJitter float64
	// Index tunes the HNSW graph (zero fields take index defaults).
	Index index.Config
}

// ScaleID10k, ScaleID100k and ScaleID1M are the study's standard sizes.
// 100k is the acceptance point (sub-millisecond lookups, ≥50× over the
// exhaustive scan); 1M is the headroom run for cmd/experiments.
func ScaleID10k() ScaleIDConfig  { return scaleIDAt(10_000) }
func ScaleID100k() ScaleIDConfig { return scaleIDAt(100_000) }
func ScaleID1M() ScaleIDConfig   { return scaleIDAt(1_000_000) }

func scaleIDAt(n int) ScaleIDConfig {
	return ScaleIDConfig{
		Enrollees:    n,
		PerUser:      1,
		Dim:          64,
		LatentDim:    16,
		Queries:      200,
		Shortlist:    16,
		WithinJitter: 0.15,
		Index:        index.Config{M: 8, EfConstruction: 64, EfSearch: 24},
	}
}

// ScaleIDResult reports the study's measurements.
type ScaleIDResult struct {
	Enrollees int
	Vectors   int
	// Build is the wall time to embed and index the whole population.
	Build time.Duration
	// ANNP50/ANNP99 are per-lookup latencies of the HNSW search.
	ANNP50, ANNP99 time.Duration
	// ScanP50 is the per-lookup latency of the exact exhaustive scan —
	// the lower bound for any linear identification pass.
	ScanP50 time.Duration
	// Speedup is ScanP50 / ANNP50.
	Speedup float64
	// UserRecall is the fraction of probes whose true user appears in the
	// ANN shortlist.
	UserRecall float64
	// ScanRecall is the mean |ANN ∩ exact top-k| / k overlap.
	ScanRecall float64
}

// Write prints the result as a paper-style row block.
func (r *ScaleIDResult) Write(w io.Writer) {
	fmt.Fprintf(w, "enrollees %d (%d vectors), build %s\n", r.Enrollees, r.Vectors, r.Build.Round(time.Millisecond))
	fmt.Fprintf(w, "  ann lookup   p50 %-10s p99 %s\n", r.ANNP50, r.ANNP99)
	fmt.Fprintf(w, "  exact scan   p50 %-10s (%.1fx slower)\n", r.ScanP50, r.Speedup)
	fmt.Fprintf(w, "  recall       user %.3f  top-k overlap %.3f\n", r.UserRecall, r.ScanRecall)
}

// RunScaleID synthesizes the population, builds the index and times the
// lookups. Deterministic for a given config.
func RunScaleID(cfg ScaleIDConfig) (*ScaleIDResult, error) {
	if cfg.Enrollees < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 enrollees, got %d", cfg.Enrollees)
	}
	if cfg.PerUser <= 0 {
		cfg.PerUser = 1
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 64
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	if cfg.Shortlist <= 0 {
		cfg.Shortlist = 16
	}
	if cfg.WithinJitter <= 0 {
		cfg.WithinJitter = 0.15
	}
	if cfg.LatentDim <= 0 {
		cfg.LatentDim = 16
	}

	ann, err := index.New(cfg.Dim, cfg.Index)
	if err != nil {
		return nil, fmt.Errorf("experiments: scale index: %w", err)
	}
	basis := latentBasis(cfg.Dim, cfg.LatentDim)
	rowUser := make([]int, 0, cfg.Enrollees*cfg.PerUser)
	tmpl := make([]float64, cfg.LatentDim)
	noisy := make([]float64, cfg.LatentDim)
	lifted := make([]float64, cfg.Dim)
	var q []float32
	buildStart := time.Now()
	for u := 1; u <= cfg.Enrollees; u++ {
		rng := userTemplate(tmpl, u)
		for s := 0; s < cfg.PerUser; s++ {
			jitter(noisy, tmpl, cfg.WithinJitter, rng)
			lift(lifted, basis, noisy)
			q = index.Project(q, lifted)
			if err := ann.Add(len(rowUser), q); err != nil {
				return nil, fmt.Errorf("experiments: index enrollee %d: %w", u, err)
			}
			rowUser = append(rowUser, u)
		}
	}
	res := &ScaleIDResult{
		Enrollees: cfg.Enrollees,
		Vectors:   len(rowUser),
		Build:     time.Since(buildStart),
	}

	// Probe users spread across the population, deterministically. Each
	// engine is timed in its own steady-state pass — in deployment the
	// lookups arrive back to back against one engine; interleaving them
	// would let the exhaustive scan's 25 MB sweep evict the graph from
	// cache between ANN lookups and charge that eviction to the index.
	stride := cfg.Enrollees / cfg.Queries
	if stride < 1 {
		stride = 1
	}
	probes := make([][]float32, cfg.Queries)
	probeUser := make([]int, cfg.Queries)
	for i := range probes {
		u := 1 + (i*stride)%cfg.Enrollees
		rng := userTemplate(tmpl, u)
		rng = rand.New(rand.NewSource(rng.Int63() ^ 0x5ca1e)) // probe, not enrollment, draw
		jitter(noisy, tmpl, cfg.WithinJitter, rng)
		lift(lifted, basis, noisy)
		probes[i] = index.Project(nil, lifted)
		probeUser[i] = u
	}

	annLat := make([]time.Duration, cfg.Queries)
	scanLat := make([]time.Duration, cfg.Queries)
	annRes := make([][]index.Result, cfg.Queries)
	scanRes := make([][]index.Result, cfg.Queries)
	for i, p := range probes {
		t0 := time.Now()
		annRes[i] = ann.Search(p, cfg.Shortlist)
		annLat[i] = time.Since(t0)
	}
	for i, p := range probes {
		t0 := time.Now()
		scanRes[i] = ann.ScanNearest(p, cfg.Shortlist)
		scanLat[i] = time.Since(t0)
	}

	var userHits, overlap, pairs int
	for i := range probes {
		got, want := annRes[i], scanRes[i]
		inWant := make(map[int]bool, len(want))
		for _, r := range want {
			inWant[r.ID] = true
		}
		for _, r := range got {
			if rowUser[r.ID] == probeUser[i] {
				userHits++
				break
			}
		}
		for _, r := range got {
			if inWant[r.ID] {
				overlap++
			}
		}
		pairs += len(want)
	}
	res.ANNP50, res.ANNP99 = percentiles(annLat)
	res.ScanP50, _ = percentiles(scanLat)
	if res.ANNP50 > 0 {
		res.Speedup = float64(res.ScanP50) / float64(res.ANNP50)
	}
	res.UserRecall = float64(userHits) / float64(cfg.Queries)
	if pairs > 0 {
		res.ScanRecall = float64(overlap) / float64(pairs)
	}
	return res, nil
}

// latentBasis is the fixed latent-to-embedding linear map, shared by the
// whole population: column k is a deterministic pseudo-random direction in
// embedding space (rows × cols, row-major).
func latentBasis(dim, latent int) []float64 {
	rng := rand.New(rand.NewSource(0x10ca1))
	basis := make([]float64, dim*latent)
	for i := range basis {
		basis[i] = rng.NormFloat64()
	}
	return basis
}

// lift maps a latent point into embedding space: dst = basis · l.
func lift(dst, basis, l []float64) {
	latent := len(l)
	for i := range dst {
		row := basis[i*latent : (i+1)*latent]
		var s float64
		for k, v := range row {
			s += v * l[k]
		}
		dst[i] = s
	}
}

// userTemplate fills tmpl with enrollee u's identity point in the latent
// anatomical factor space, derived from their internal/body profile so
// the population inherits the roster's demographic structure, and returns
// the user's rng positioned after the template draw (within-user jitter
// comes next). Trait coordinates are centred and scaled to roughly unit
// variance so no factor degenerates into a population-wide offset.
func userTemplate(tmpl []float64, u int) *rand.Rand {
	g := body.Male
	if u%2 == 0 {
		g = body.Female
	}
	p := body.NewProfile(u, g, "synthetic", "synthetic")
	rng := rand.New(rand.NewSource(p.Seed))
	traits := []float64{
		(p.HeightM - 1.7) * 8,
		(p.ShoulderHalfM - 0.21) * 30,
		(p.WaistRatio - 0.745) * 12,
		(p.HeadRadiusM - 0.1) * 100,
		(p.TorsoDepthM - 0.07) * 30,
		(p.BaseReflectivity - 0.75) * 8,
		p.PostureDepthM * 80,
	}
	for i := range tmpl {
		if i < len(traits) {
			tmpl[i] = traits[i]
		} else {
			tmpl[i] = rng.NormFloat64()
		}
	}
	return rng
}

func jitter(dst, tmpl []float64, sigma float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = tmpl[i] + sigma*rng.NormFloat64()
	}
}

func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2], s[(len(s)*99)/100]
}
