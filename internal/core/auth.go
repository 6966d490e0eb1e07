package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"echoimage/internal/features"
	"echoimage/internal/index"
	"echoimage/internal/svm"
)

// Identification constants. Every trained bin carries an HNSW index
// (index.Config defaults) over its enrollment embeddings; identification
// shortlists candidates from the index, re-ranks them and gates the
// winner with SVDD.
const (
	// shortlistSize is how many nearest enrollment embeddings the ANN
	// lookup returns; the distinct user labels among them are the
	// candidate set.
	shortlistSize = 16
	// maxSVMUsers bounds the per-bin user count for which the one-vs-one
	// margin re-ranker is trained. Beyond it — where O(n²) pair training
	// stops scaling — shortlisted candidates are ranked by accumulated
	// cosine similarity alone.
	maxSVMUsers = 64
	// planeBinWidth groups enrollment images by imaging-plane distance. An
	// acoustic image's geometry (ring structure) is a function of its
	// plane distance, so models are conditioned per bin; comparing images
	// across bins conflates geometry with identity.
	planeBinWidth = 0.1
)

// AuthConfig parameterizes the user-authentication component (§V-D/E):
// the frozen feature extractor, the SVDD spoofer gate and identification.
type AuthConfig struct {
	// Features sizes the frozen VGGishLite extractor.
	Features features.Config
	// SVC configures the n-class identification SVM.
	SVC svm.SVCConfig
	// SVDD configures the one-class spoofer gate.
	SVDD svm.SVDDConfig
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
	identify *svm.MultiClass   // margin re-ranker; nil above maxSVMUsers or single-user
	users    []int
	gamma    float64      // fitted RBF width; extension reuses it
	ann      *index.Index // HNSW over enrollment embeddings; vector ID = user label
}

// Authenticator is the trained §V-E classifier stack, conditioned on the
// imaging-plane distance bin. In the single-user scenario only the SVDD
// gate exists per bin; with n ≥ 2 users identification shortlists
// candidates from the embedding index and the gate verifies the winner.
type Authenticator struct {
	extractor *features.Extractor
	cfg       AuthConfig
	bins      map[int]*binModel
	binWidth  float64
	users     []int
	scratch   sync.Pool // *authScratch, reused across index searches
}

// authScratch is the per-call working memory of an index search: the
// float32 query embedding. Pooled so the hot path allocates nothing for
// projection once warm.
type authScratch struct {
	q []float32
}

// TrainAuthenticator fits the classifier stack from enrollment images,
// keyed by registered user ID (IDs must be positive). The images are
// feature-extracted in parallel, one image per task. The context is
// checked between extractions and between per-bin model fits, so a
// background retrain worker can abandon a train whose enrollment snapshot
// has become obsolete.
func TrainAuthenticator(ctx context.Context, cfg AuthConfig, enrollment map[int][]*AcousticImage) (*Authenticator, error) {
	if len(enrollment) == 0 {
		return nil, fmt.Errorf("core: no enrollment data")
	}
	ext, err := features.NewExtractor(cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("core: build extractor: %w", err)
	}
	users := make([]int, 0, len(enrollment))
	for id := range enrollment {
		if id <= 0 {
			return nil, fmt.Errorf("core: user ID %d must be positive", id)
		}
		users = append(users, id)
	}
	sort.Ints(users)

	for _, id := range users {
		if len(enrollment[id]) == 0 {
			return nil, fmt.Errorf("core: user %d has no enrollment images", id)
		}
	}
	binSets, err := binVectors(ctx, ext, planeBinWidth, users, enrollment)
	if err != nil {
		return nil, err
	}

	auth := &Authenticator{
		extractor: ext,
		cfg:       cfg,
		bins:      make(map[int]*binModel, len(binSets)),
		binWidth:  planeBinWidth,
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
// optional WCCN whitener, ANN index, the SVDD gates and,
// when the user count allows, the one-vs-one SVM. Shared by the full
// train and by ExtendContext for bins a new user opens.
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
	bm.gamma = calibrateGamma(x, labels)
	kernel := svm.RBF{Gamma: bm.gamma}
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
	if err := bm.buildIndex(x, labels); err != nil {
		return nil, err
	}
	if len(bm.users) > 1 && len(bm.users) <= maxSVMUsers {
		mc, err := svm.TrainMultiClass(kernel, x, labels, cfg.SVC)
		if err != nil {
			return nil, fmt.Errorf("train identification SVM: %w", err)
		}
		bm.identify = mc
	}
	return bm, nil
}

// buildIndex projects the (whitened) training vectors into the embedding
// space and indexes each under its user label. Insertion follows the
// training order — users ascending, then their images in enrollment
// order — so construction is deterministic.
func (bm *binModel) buildIndex(x [][]float64, labels []int) error {
	if len(x) == 0 {
		return fmt.Errorf("no vectors to index")
	}
	ann, err := index.New(len(x[0]), index.Config{})
	if err != nil {
		return fmt.Errorf("ANN index: %w", err)
	}
	bm.ann = ann
	return bm.addEmbeddings(x, labels)
}

// addEmbeddings projects x and adds each vector to bm's index under its
// user label.
func (bm *binModel) addEmbeddings(x [][]float64, labels []int) error {
	var q []float32
	for i, v := range x {
		q = index.Project(q, v)
		if err := bm.ann.Add(labels[i], q); err != nil {
			return fmt.Errorf("index embedding: %w", err)
		}
	}
	return nil
}

// calibrateGamma sets the RBF width from the supervised within-class
// spread: gamma = 1 / mean(within-class squared distance). This puts
// same-user kernel values near e^-1 while samples a few within-class radii
// away (other users, spoofers) decay toward zero.
func calibrateGamma(xs [][]float64, labels []int) float64 {
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
	return float64(n) / sum
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

// IndexSize returns the total number of enrollment embeddings indexed
// across all plane bins.
func (a *Authenticator) IndexSize() int {
	var n int
	for _, bm := range a.bins {
		n += bm.ann.Len()
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

// binSet is one plane bin's training vectors and their user labels.
type binSet struct {
	x      [][]float64
	labels []int
}

// binVectors feature-extracts the enrollment images of the listed users
// and groups the vectors by plane bin in the train's deterministic order:
// users as listed, then their images in enrollment order.
func binVectors(ctx context.Context, ext *features.Extractor, binWidth float64, ids []int, enrollment map[int][]*AcousticImage) (map[int]*binSet, error) {
	var imgs []*AcousticImage
	var labels []int
	for _, id := range ids {
		for _, img := range enrollment[id] {
			if img == nil || img.Image == nil {
				return nil, fmt.Errorf("core: user %d has a nil enrollment image", id)
			}
			imgs = append(imgs, img)
			labels = append(labels, id)
		}
	}
	xs, err := extractAll(ctx, ext, imgs)
	if err != nil {
		return nil, fmt.Errorf("core: feature extraction cancelled: %w", err)
	}
	bins := make(map[int]*binSet)
	for i, img := range imgs {
		bin := int(math.Round(img.PlaneDistM / binWidth))
		bs := bins[bin]
		if bs == nil {
			bs = &binSet{}
			bins[bin] = bs
		}
		bs.x = append(bs.x, xs[i])
		bs.labels = append(bs.labels, labels[i])
	}
	return bins, nil
}

// extractAll extracts every image's feature vector in parallel, one image
// per task, into the slot of its index. Cancelling ctx stops the
// extraction between images and returns ctx's error.
func extractAll(ctx context.Context, ext *features.Extractor, imgs []*AcousticImage) ([][]float64, error) {
	xs := make([][]float64, len(imgs))
	err := parallel(len(imgs), func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		xs[i] = extractImage(ext, imgs[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return xs, nil
}

// vector is img's feature vector as bm's classifiers see it: extracted,
// then whitened when the bin has a whitener.
func (a *Authenticator) vector(bm *binModel, img *AcousticImage) []float64 {
	x := extractImage(a.extractor, img)
	if bm.whiten != nil {
		x = bm.whiten.Apply(x)
	}
	return x
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
	bm, bin := a.binFor(img)
	if bm == nil {
		return noBin(bin)
	}
	return a.decide(bm, bin, a.vector(bm, img), nil)
}

// Shortlist returns the distinct candidate user IDs among the k nearest
// enrollment embeddings for one image (k ≤ 0 uses the serving shortlist
// size), nearest first. It returns nil when no bin covers the image's
// plane distance. Exposed for
// recall evaluation and for continuous-authentication callers that fuse
// their own evidence over candidates.
func (a *Authenticator) Shortlist(img *AcousticImage, k int) []int {
	bm, _ := a.binFor(img)
	if bm == nil {
		return nil
	}
	if k <= 0 {
		k = shortlistSize
	}
	sc := a.getScratch()
	defer a.scratch.Put(sc)
	sc.q = index.Project(sc.q, a.vector(bm, img))
	res := bm.ann.Search(sc.q, k)
	seen := make(map[int]bool, len(res))
	out := make([]int, 0, len(res))
	for _, r := range res {
		if !seen[r.ID] {
			seen[r.ID] = true
			out = append(out, r.ID)
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

// noBin is the rejection of an image no trained bin covers.
func noBin(bin int) AuthResult {
	return AuthResult{Accepted: false, GateScore: -1, Bin: bin}
}

// decide identifies and gates the feature vector x of one image in bm: a
// non-nil recorder receives the index-search (multi-user bins) and the
// re-rank+gate durations.
func (a *Authenticator) decide(bm *binModel, bin int, x []float64, rec StageRecorder) AuthResult {
	var mark time.Time
	if rec != nil {
		mark = time.Now()
	}
	candidate := bm.users[0]
	if len(bm.users) > 1 {
		sc := a.getScratch()
		sc.q = index.Project(sc.q, x)
		res := bm.ann.Search(sc.q, shortlistSize)
		a.scratch.Put(sc)
		if rec != nil {
			now := time.Now()
			rec.RecordStage(StageIndexSearch, now.Sub(mark))
			mark = now
		}
		candidate = bm.rerank(x, res)
	}
	out := bm.verify(x, candidate, bin)
	if rec != nil {
		rec.RecordStage(StageClassify, time.Since(mark))
	}
	return out
}

// verify gates the identified candidate: against the candidate's own
// sphere when per-user gates exist, otherwise (or when the user has too
// little bin data) against the pooled sphere.
func (bm *binModel) verify(x []float64, candidate, bin int) AuthResult {
	gate := bm.gate
	if ug, ok := bm.userGate[candidate]; ok {
		gate = ug
	}
	score := gate.Score(x)
	if !gate.Accept(x) {
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
		if _, ok := sim[r.ID]; !ok {
			order = append(order, r.ID)
		}
		sim[r.ID] += 1 - float64(r.Dist)
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
// identity among accepted images. The images are feature-extracted (and
// whitened) in parallel, one image per task; search, classification and
// the vote then run on the calling goroutine in image order. A non-nil
// recorder is called only from the calling goroutine, with spans that do
// not overlap: one features span for the whole extraction, then one
// index-search span (multi-user bins) and one classify span per image; a
// nil recorder adds no work.
func (a *Authenticator) AuthenticateMajorityRecorded(imgs []*AcousticImage, rec StageRecorder) (AuthResult, error) {
	if len(imgs) == 0 {
		return AuthResult{}, fmt.Errorf("core: no images to authenticate")
	}
	var mark time.Time
	if rec != nil {
		mark = time.Now()
	}
	xs := make([][]float64, len(imgs))
	// Extraction cannot fail, so parallel returns nil.
	_ = parallel(len(imgs), func(_, i int) error {
		if bm, _ := a.binFor(imgs[i]); bm != nil {
			xs[i] = a.vector(bm, imgs[i])
		}
		return nil
	})
	if rec != nil {
		rec.RecordStage(StageFeatures, time.Since(mark))
	}
	accepted := 0
	idVotes := make(map[int]int)
	var scoreSum float64
	for i, img := range imgs {
		bm, bin := a.binFor(img)
		r := noBin(bin)
		if bm != nil {
			r = a.decide(bm, bin, xs[i], rec)
		}
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
