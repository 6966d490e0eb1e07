package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"echoimage/internal/embed"
	"echoimage/internal/features"
	"echoimage/internal/index"
	"echoimage/internal/svm"
)

// IdentifyMode selects the identification engine.
type IdentifyMode string

const (
	// IdentifyANN is the sublinear default: project the whitened feature
	// vector into the shared embedding space, shortlist candidate users
	// from an HNSW index over the enrollment embeddings, re-rank the
	// shortlist (by one-vs-one SVM margin when available, accumulated
	// cosine similarity otherwise), and gate with SVDD.
	IdentifyANN IdentifyMode = "ann"
	// IdentifyExhaustive is the paper's reference path: the full
	// one-vs-one SVM vote over every registered user — O(n²) decisions
	// per image. Retained for ablation and as the fallback for models
	// persisted before the embedding space existed.
	IdentifyExhaustive IdentifyMode = "exhaustive"
)

// IdentifyConfig parameterizes identification. The zero value means the
// ANN engine with the defaults below.
type IdentifyConfig struct {
	// Mode picks the engine; empty means IdentifyANN.
	Mode IdentifyMode
	// Shortlist is how many nearest enrollment embeddings the ANN lookup
	// returns; the distinct user labels among them are the candidate set.
	// 0 means 16.
	Shortlist int
	// Index tunes the HNSW graph (zero fields take index defaults).
	Index index.Config
	// MaxSVMUsers bounds the per-bin user count for which the one-vs-one
	// margin re-ranker is trained. Beyond it — where O(n²) pair training
	// stops scaling — shortlisted candidates are ranked by accumulated
	// cosine similarity alone. 0 means 64.
	MaxSVMUsers int
}

// DefaultShortlist is the ANN shortlist size when IdentifyConfig.Shortlist
// is zero.
const DefaultShortlist = 16

// DefaultMaxSVMUsers is the per-bin user bound for the SVM re-ranker when
// IdentifyConfig.MaxSVMUsers is zero.
const DefaultMaxSVMUsers = 64

func (c IdentifyConfig) mode() IdentifyMode {
	if c.Mode == IdentifyExhaustive {
		return IdentifyExhaustive
	}
	return IdentifyANN
}

func (c IdentifyConfig) shortlist() int {
	if c.Shortlist > 0 {
		return c.Shortlist
	}
	return DefaultShortlist
}

func (c IdentifyConfig) maxSVMUsers() int {
	if c.MaxSVMUsers > 0 {
		return c.MaxSVMUsers
	}
	return DefaultMaxSVMUsers
}

// AuthConfig parameterizes the user-authentication component (§V-D/E):
// the frozen feature extractor, the SVDD spoofer gate and identification.
type AuthConfig struct {
	// Features sizes the frozen VGGishLite extractor.
	Features features.Config
	// SVC configures the n-class identification SVM.
	SVC svm.SVCConfig
	// SVDD configures the one-class spoofer gate.
	SVDD svm.SVDDConfig
	// Identify selects and tunes the identification engine: the shared
	// embedding space + ANN index by default, the paper's exhaustive
	// one-vs-one SVM scan as the reference/fallback.
	Identify IdentifyConfig
	// Gamma is the RBF kernel width; 0 calibrates it per plane bin from
	// the supervised within-class distances of the enrollment set.
	Gamma float64
	// GammaWithinFactor scales the calibrated gamma: gamma =
	// factor / mean(within-class ‖a−b‖²). 0 means 1.
	GammaWithinFactor float64
	// BinWidthM groups enrollment images by imaging-plane distance. An
	// acoustic image's geometry (ring structure) is a function of its
	// plane distance, so models are conditioned per bin; comparing images
	// across bins conflates geometry with identity. 0 means 0.1 m.
	BinWidthM float64
	// WhitenDirections is the number of within-class nuisance directions
	// suppressed by WCCN before classification; 0 (the default) disables
	// whitening, which empirically serves this feature space best — the
	// option exists for ablation.
	WhitenDirections int
	// PooledGate switches the spoofer gate to the paper's exact design: a
	// single SVDD over all registered users' enrollment data per bin. The
	// default (false) verifies against the identified user's own SVDD
	// sphere — identify-then-verify — which is tighter: an impostor must
	// resemble one specific user, not merely fall inside the union hull
	// of all users.
	PooledGate bool
}

// DefaultAuthConfig matches the paper's classifier stack, with the
// embedding + ANN identification engine in front of it.
func DefaultAuthConfig() AuthConfig {
	return AuthConfig{
		Features: features.DefaultConfig(),
		SVC:      svm.DefaultSVCConfig(),
		SVDD:     svm.DefaultSVDDConfig(),
	}
}

// AuthResult is one authentication decision.
type AuthResult struct {
	// Accepted reports whether the sample passed the SVDD gate.
	Accepted bool
	// UserID is the identified registered user; 0 when rejected.
	UserID int
	// GateScore is the SVDD acceptance margin (positive inside the
	// sphere).
	GateScore float64
	// Bin is the plane-distance bin the decision was made in.
	Bin int
}

// binModel is the classifier stack for one plane-distance bin.
type binModel struct {
	whiten   *Whitener
	gate     *svm.SVDD         // pooled gate over every user in the bin
	userGate map[int]*svm.SVDD // per-user verification spheres
	identify *svm.MultiClass   // margin re-ranker; nil above MaxSVMUsers or single-user
	users    []int
	gamma    float64      // fitted RBF width; extension reuses it
	embeds   *embed.Set   // enrollment embeddings, row ID = user label
	ann      *index.Index // HNSW over embedding rows; vector ID = row number
}

// Authenticator is the trained §V-E classifier stack, conditioned on the
// imaging-plane distance bin. In the single-user scenario only the SVDD
// gate exists per bin; with n ≥ 2 users identification shortlists
// candidates from the embedding index (or scans the one-vs-one SVM in
// exhaustive mode) and the gate verifies the winner.
type Authenticator struct {
	extractor *features.Extractor
	featCfg   features.Config
	cfg       AuthConfig
	bins      map[int]*binModel
	binWidth  float64
	users     []int
	scratch   sync.Pool // *authScratch, reused across authentications
}

// authScratch is the per-call working memory of authenticate: the
// whitened feature vector and the float32 query embedding. Pooled so the
// hot path allocates nothing for whitening or projection once warm.
type authScratch struct {
	white []float64
	q     []float32
}

// TrainAuthenticator fits the classifier stack from enrollment images,
// keyed by registered user ID (IDs must be positive). The context is
// checked between feature extraction passes and between per-bin model
// fits, so a background retrain worker can abandon a train whose
// enrollment snapshot has become obsolete.
func TrainAuthenticator(ctx context.Context, cfg AuthConfig, enrollment map[int][]*AcousticImage) (*Authenticator, error) {
	if len(enrollment) == 0 {
		return nil, fmt.Errorf("core: no enrollment data")
	}
	ext, err := features.NewExtractor(cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("core: build extractor: %w", err)
	}
	binWidth := cfg.BinWidthM
	if binWidth <= 0 {
		binWidth = 0.1
	}

	users := make([]int, 0, len(enrollment))
	for id := range enrollment {
		if id <= 0 {
			return nil, fmt.Errorf("core: user ID %d must be positive", id)
		}
		users = append(users, id)
	}
	sort.Ints(users)

	type binData struct {
		x      [][]float64
		labels []int
	}
	binSets := make(map[int]*binData)
	for _, id := range users {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: train cancelled: %w", err)
		}
		imgs := enrollment[id]
		if len(imgs) == 0 {
			return nil, fmt.Errorf("core: user %d has no enrollment images", id)
		}
		for _, img := range imgs {
			if img == nil || img.Image == nil {
				return nil, fmt.Errorf("core: user %d has a nil enrollment image", id)
			}
			bin := int(math.Round(img.PlaneDistM / binWidth))
			bd := binSets[bin]
			if bd == nil {
				bd = &binData{}
				binSets[bin] = bd
			}
			bd.x = append(bd.x, extractImage(ext, img))
			bd.labels = append(bd.labels, id)
		}
	}

	auth := &Authenticator{
		extractor: ext,
		featCfg:   cfg.Features,
		cfg:       cfg,
		bins:      make(map[int]*binModel, len(binSets)),
		binWidth:  binWidth,
		users:     users,
	}
	for bin, bd := range binSets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: train cancelled: %w", err)
		}
		bm, err := fitBinModel(cfg, bd.x, bd.labels)
		if err != nil {
			return nil, fmt.Errorf("core: bin %d: %w", bin, err)
		}
		auth.bins[bin] = bm
	}
	return auth, nil
}

// fitBinModel trains the full classifier stack of one plane-distance bin:
// optional WCCN whitener, embedding set + ANN index (ANN mode), the SVDD
// gates and, when the user count allows, the one-vs-one SVM. Shared by
// the full train and by ExtendContext for bins a new user opens.
func fitBinModel(cfg AuthConfig, x [][]float64, labels []int) (*binModel, error) {
	bm := &binModel{users: distinctLabels(labels)}
	if cfg.WhitenDirections > 0 {
		wh, err := FitWhitener(x, labels, cfg.WhitenDirections)
		if err != nil {
			return nil, fmt.Errorf("fit whitener: %w", err)
		}
		bm.whiten = wh
		wx := make([][]float64, len(x))
		for i, v := range x {
			wx[i] = wh.Apply(v)
		}
		x = wx
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = calibrateGamma(x, labels, cfg.GammaWithinFactor)
	}
	bm.gamma = gamma
	kernel := svm.RBF{Gamma: gamma}
	gate, err := svm.TrainSVDD(kernel, x, cfg.SVDD)
	if err != nil {
		return nil, fmt.Errorf("train SVDD gate: %w", err)
	}
	bm.gate = gate
	if !cfg.PooledGate {
		bm.userGate = make(map[int]*svm.SVDD, len(bm.users))
		for _, id := range bm.users {
			var ux [][]float64
			for i, l := range labels {
				if l == id {
					ux = append(ux, x[i])
				}
			}
			if len(ux) < 3 {
				continue // too little data; the pooled gate covers it
			}
			ug, err := svm.TrainSVDD(kernel, ux, cfg.SVDD)
			if err != nil {
				return nil, fmt.Errorf("train user %d SVDD: %w", id, err)
			}
			bm.userGate[id] = ug
		}
	}
	ann := cfg.Identify.mode() == IdentifyANN
	if ann {
		if err := bm.buildIndex(cfg.Identify.Index, x, labels); err != nil {
			return nil, err
		}
	}
	if len(bm.users) > 1 && (!ann || len(bm.users) <= cfg.Identify.maxSVMUsers()) {
		mc, err := svm.TrainMultiClass(kernel, x, labels, cfg.SVC)
		if err != nil {
			return nil, fmt.Errorf("train identification SVM: %w", err)
		}
		bm.identify = mc
	}
	return bm, nil
}

// buildIndex projects the (whitened) training vectors into the embedding
// space and indexes them. Row order follows the training order — users
// ascending, then their images in enrollment order — so construction is
// deterministic.
func (bm *binModel) buildIndex(icfg index.Config, x [][]float64, labels []int) error {
	if len(x) == 0 {
		return fmt.Errorf("no vectors to index")
	}
	dim := len(x[0])
	es, err := embed.NewSet(dim)
	if err != nil {
		return fmt.Errorf("embedding set: %w", err)
	}
	ann, err := index.New(dim, icfg)
	if err != nil {
		return fmt.Errorf("ANN index: %w", err)
	}
	var q []float32
	for i, v := range x {
		q = embed.Project(q, v)
		if err := es.Append(labels[i], q); err != nil {
			return fmt.Errorf("append embedding: %w", err)
		}
		if err := ann.Add(es.Len()-1, q); err != nil {
			return fmt.Errorf("index embedding: %w", err)
		}
	}
	bm.embeds, bm.ann = es, ann
	return nil
}

// calibrateGamma sets the RBF width from the supervised within-class
// spread: gamma = factor / mean(within-class squared distance). This puts
// same-user kernel values near e^-1 while samples a few within-class radii
// away (other users, spoofers) decay toward zero.
func calibrateGamma(xs [][]float64, labels []int, factor float64) float64 {
	if factor <= 0 {
		factor = 1
	}
	var sum float64
	var n int
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if labels[i] != labels[j] {
				continue
			}
			var d2 float64
			for k := range xs[i] {
				d := xs[i][k] - xs[j][k]
				d2 += d * d
			}
			sum += d2
			n++
		}
	}
	if n == 0 || sum <= 0 {
		return svm.GammaScale(xs)
	}
	return factor * float64(n) / sum
}

func distinctLabels(labels []int) []int {
	seen := make(map[int]struct{}, len(labels))
	var out []int
	for _, l := range labels {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

// Users returns the registered user IDs in ascending order.
func (a *Authenticator) Users() []int {
	out := make([]int, len(a.users))
	copy(out, a.users)
	return out
}

// Bins returns the trained plane-distance bins in ascending order.
func (a *Authenticator) Bins() []int {
	out := make([]int, 0, len(a.bins))
	for b := range a.bins {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Extractor exposes the frozen feature extractor (shared with callers that
// want to cache features).
func (a *Authenticator) Extractor() *features.Extractor { return a.extractor }

// IdentifyMode reports the identification engine this model serves with:
// IdentifyANN when the embedding index exists, IdentifyExhaustive
// otherwise (exhaustive-mode trains).
func (a *Authenticator) IdentifyMode() IdentifyMode {
	for _, bm := range a.bins {
		if bm.ann != nil {
			return IdentifyANN
		}
	}
	return IdentifyExhaustive
}

// IndexSize returns the total number of enrollment embeddings indexed
// across all plane bins (0 in exhaustive mode).
func (a *Authenticator) IndexSize() int {
	var n int
	for _, bm := range a.bins {
		if bm.ann != nil {
			n += bm.ann.Len()
		}
	}
	return n
}

// extractImage builds the feature vector for an acoustic image: the
// full-band image's features, concatenated with each sub-band image's
// features when frequency-diverse imaging is enabled.
func extractImage(ext *features.Extractor, img *AcousticImage) []float64 {
	if len(img.Bands) == 0 {
		return ext.Extract(img.Image)
	}
	out := make([]float64, 0, ext.Dim()*(1+len(img.Bands)))
	out = append(out, ext.Extract(img.Image)...)
	for _, band := range img.Bands {
		out = append(out, ext.Extract(band)...)
	}
	return out
}

// binFor resolves the plane-distance bin model for an image, falling back
// to the nearest adjacent bin: a user standing between enrolled distances
// should not be rejected for geometry alone.
func (a *Authenticator) binFor(img *AcousticImage) (*binModel, int) {
	bin := int(math.Round(img.PlaneDistM / a.binWidth))
	bm := a.bins[bin]
	if bm == nil {
		if m, ok := a.bins[bin-1]; ok {
			bm = m
			bin--
		}
		if m, ok := a.bins[bin+1]; bm == nil && ok {
			bm = m
			bin++
		}
	}
	return bm, bin
}

// Authenticate runs the full decision procedure of Figure 10 on one
// acoustic image: pick the plane bin's model, shortlist + identify, then
// verify with the SVDD gate.
func (a *Authenticator) Authenticate(img *AcousticImage) AuthResult {
	return a.authenticate(img, nil)
}

// Shortlist returns the distinct candidate user IDs among the k nearest
// enrollment embeddings for one image (k ≤ 0 uses the configured
// shortlist size), nearest first. It returns nil when the image's bin has
// no ANN index (exhaustive mode or out-of-range distance). Exposed for
// recall evaluation and for continuous-authentication callers that fuse
// their own evidence over candidates.
func (a *Authenticator) Shortlist(img *AcousticImage, k int) []int {
	bm, _ := a.binFor(img)
	if bm == nil || bm.ann == nil {
		return nil
	}
	if k <= 0 {
		k = a.cfg.Identify.shortlist()
	}
	sc := a.getScratch()
	defer a.scratch.Put(sc)
	x := extractImage(a.extractor, img)
	if bm.whiten != nil {
		sc.white = bm.whiten.ApplyTo(sc.white, x)
		x = sc.white
	}
	sc.q = embed.Project(sc.q, x)
	res := bm.ann.Search(sc.q, k)
	seen := make(map[int]bool, len(res))
	out := make([]int, 0, len(res))
	for _, r := range res {
		id := bm.embeds.ID(r.ID)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func (a *Authenticator) getScratch() *authScratch {
	sc, _ := a.scratch.Get().(*authScratch)
	if sc == nil {
		sc = &authScratch{}
	}
	return sc
}

// authenticate is the single-image decision with optional stage timing:
// a non-nil recorder receives the feature-extraction (incl. whitening),
// index-search (ANN mode) and re-rank+gate durations.
func (a *Authenticator) authenticate(img *AcousticImage, rec StageRecorder) AuthResult {
	bm, bin := a.binFor(img)
	if bm == nil {
		return AuthResult{Accepted: false, GateScore: -1, Bin: bin}
	}
	var mark time.Time
	if rec != nil {
		mark = time.Now()
	}
	sc := a.getScratch()
	defer a.scratch.Put(sc)
	x := extractImage(a.extractor, img)
	if bm.whiten != nil {
		sc.white = bm.whiten.ApplyTo(sc.white, x)
		x = sc.white
	}
	if rec != nil {
		now := time.Now()
		rec.RecordStage(StageFeatures, now.Sub(mark))
		mark = now
	}
	// Identify first, then verify against the identified user's own
	// sphere when per-user gates exist; otherwise (or when the user has
	// too little bin data) the pooled sphere decides.
	candidate := bm.users[0]
	if len(bm.users) > 1 {
		if bm.ann != nil {
			sc.q = embed.Project(sc.q, x)
			res := bm.ann.Search(sc.q, a.cfg.Identify.shortlist())
			if rec != nil {
				now := time.Now()
				rec.RecordStage(StageIndexSearch, now.Sub(mark))
				mark = now
			}
			candidate = bm.rerank(x, res)
		} else if bm.identify != nil {
			candidate = bm.identify.Predict(x)
		}
	}
	gate := bm.gate
	if ug, ok := bm.userGate[candidate]; ok {
		gate = ug
	}
	score := gate.Score(x)
	accepted := gate.Accept(x)
	if rec != nil {
		rec.RecordStage(StageClassify, time.Since(mark))
	}
	if !accepted {
		return AuthResult{Accepted: false, GateScore: score, Bin: bin}
	}
	return AuthResult{Accepted: true, UserID: candidate, GateScore: score, Bin: bin}
}

// rerank picks the identified user from an ANN shortlist: the one-vs-one
// SVM margin vote restricted to the candidate set when the re-ranker
// exists, the accumulated cosine similarity per candidate otherwise.
// Ties break toward the smaller user ID, keeping decisions deterministic.
func (bm *binModel) rerank(x []float64, res []index.Result) int {
	if len(res) == 0 {
		return bm.users[0]
	}
	sim := make(map[int]float64, len(res))
	order := make([]int, 0, len(res))
	for _, r := range res {
		id := bm.embeds.ID(r.ID)
		if _, ok := sim[id]; !ok {
			order = append(order, id)
		}
		sim[id] += 1 - float64(r.Dist)
	}
	if len(order) == 1 {
		return order[0]
	}
	if bm.identify != nil {
		return bm.identify.PredictAmong(x, order)
	}
	best := order[0]
	for _, id := range order[1:] {
		if sim[id] > sim[best] || (sim[id] == sim[best] && id < best) {
			best = id
		}
	}
	return best
}

// AuthenticateMajorityRecorded fuses decisions across the images of one
// capture (one image per beep): the sample is accepted when a strict
// majority of images pass the gate, and the identified user is the modal
// identity among accepted images. A non-nil recorder receives one
// features span, one index-search span (ANN mode) and one classify span
// per image; a nil recorder adds no work.
func (a *Authenticator) AuthenticateMajorityRecorded(imgs []*AcousticImage, rec StageRecorder) (AuthResult, error) {
	if len(imgs) == 0 {
		return AuthResult{}, fmt.Errorf("core: no images to authenticate")
	}
	accepted := 0
	idVotes := make(map[int]int)
	var scoreSum float64
	for _, img := range imgs {
		r := a.authenticate(img, rec)
		scoreSum += r.GateScore
		if r.Accepted {
			accepted++
			idVotes[r.UserID]++
		}
	}
	res := AuthResult{GateScore: scoreSum / float64(len(imgs))}
	if accepted*2 <= len(imgs) {
		return res, nil
	}
	res.Accepted = true
	bestID, bestVotes := 0, -1
	for id, v := range idVotes {
		if v > bestVotes || (v == bestVotes && id < bestID) {
			bestID, bestVotes = id, v
		}
	}
	res.UserID = bestID
	return res, nil
}
