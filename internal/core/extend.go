package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"echoimage/internal/embed"
	"echoimage/internal/svm"
)

// CanExtend reports whether this model supports incremental extension
// with new users (ExtendContext). It requires the ANN identification
// engine — every bin carries its embedding set, index and fitted kernel
// width — and per-user verification gates. Exhaustive-mode models and
// pooled-gate models (the pooled sphere would have to be refit over every
// user's data) report false; the registry then falls back to a full
// retrain.
func (a *Authenticator) CanExtend() bool {
	if a.cfg.PooledGate || a.cfg.Identify.mode() != IdentifyANN {
		return false
	}
	for _, bm := range a.bins {
		if bm.ann == nil || bm.embeds == nil || bm.gamma <= 0 {
			return false
		}
	}
	return true
}

// ExtendContext registers new users without retraining the n existing
// per-user models: the whitener, kernel width, every existing user's
// verification sphere and every existing one-vs-one SVM pair are reused
// as-is (they are immutable), the embedding index is cloned and extended
// with the new users' embeddings, and only the new users' SVDD spheres
// plus their SVM duels against the existing roster are fit — O(n) binary
// fits instead of the O(n²) rebuild. existing supplies the current
// users' enrollment images; they are feature-extracted only for bins
// where a new SVM pair actually needs them. The receiver is not
// modified; the returned Authenticator is a fresh snapshot sharing the
// frozen parts, ready for an atomic swap.
//
// Each added user needs at least 3 images per plane bin they appear in
// (their verification sphere cannot fall back to the pooled gate, which
// is frozen without their data). Models for which CanExtend is false
// reject extension.
func (a *Authenticator) ExtendContext(ctx context.Context, add map[int][]*AcousticImage, existing map[int][]*AcousticImage) (*Authenticator, error) {
	if len(add) == 0 {
		return nil, fmt.Errorf("core: no users to add")
	}
	if !a.CanExtend() {
		return nil, fmt.Errorf("core: model does not support incremental extension")
	}
	registered := make(map[int]bool, len(a.users))
	for _, id := range a.users {
		registered[id] = true
	}
	addIDs := make([]int, 0, len(add))
	for id := range add {
		if id <= 0 {
			return nil, fmt.Errorf("core: user ID %d must be positive", id)
		}
		if registered[id] {
			return nil, fmt.Errorf("core: user %d already registered", id)
		}
		if len(add[id]) == 0 {
			return nil, fmt.Errorf("core: user %d has no enrollment images", id)
		}
		addIDs = append(addIDs, id)
	}
	sort.Ints(addIDs)

	// Bin the new users' feature vectors, mirroring the train loop's
	// deterministic order: users ascending, images in enrollment order.
	type binAdd struct {
		x      [][]float64
		labels []int
	}
	binned := make(map[int]*binAdd)
	for _, id := range addIDs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: extend cancelled: %w", err)
		}
		for _, img := range add[id] {
			if img == nil || img.Image == nil {
				return nil, fmt.Errorf("core: user %d has a nil enrollment image", id)
			}
			bin := int(math.Round(img.PlaneDistM / a.binWidth))
			ba := binned[bin]
			if ba == nil {
				ba = &binAdd{}
				binned[bin] = ba
			}
			ba.x = append(ba.x, extractImage(a.extractor, img))
			ba.labels = append(ba.labels, id)
		}
	}
	for bin, ba := range binned {
		for _, id := range addIDs {
			n := 0
			for _, l := range ba.labels {
				if l == id {
					n++
				}
			}
			if n > 0 && n < 3 {
				return nil, fmt.Errorf("core: user %d has only %d images in bin %d; extension needs >= 3", id, n, bin)
			}
		}
	}

	next := &Authenticator{
		extractor: a.extractor,
		featCfg:   a.featCfg,
		cfg:       a.cfg,
		bins:      make(map[int]*binModel, len(a.bins)+len(binned)),
		binWidth:  a.binWidth,
		users:     append(append(make([]int, 0, len(a.users)+len(addIDs)), a.users...), addIDs...),
	}
	sort.Ints(next.users)
	for bin, bm := range a.bins {
		next.bins[bin] = bm // shared; replaced below if the bin gains users
	}
	for bin, ba := range binned {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: extend cancelled: %w", err)
		}
		old := a.bins[bin]
		if old == nil {
			// A bin no existing user occupies: a fresh full fit over just
			// the new users' data.
			bm, err := fitBinModel(a.cfg, ba.x, ba.labels)
			if err != nil {
				return nil, fmt.Errorf("core: bin %d: %w", bin, err)
			}
			next.bins[bin] = bm
			continue
		}
		bm, err := a.extendBin(old, ba.x, ba.labels, existing)
		if err != nil {
			return nil, fmt.Errorf("core: bin %d: %w", bin, err)
		}
		next.bins[bin] = bm
	}
	return next, nil
}

// extendBin grows one bin's model with new users' raw feature vectors,
// sharing every frozen part of old.
func (a *Authenticator) extendBin(old *binModel, x [][]float64, labels []int, existing map[int][]*AcousticImage) (*binModel, error) {
	if old.whiten != nil {
		wx := make([][]float64, len(x))
		for i, v := range x {
			wx[i] = old.whiten.Apply(v)
		}
		x = wx
	}
	newUsers := distinctLabels(labels)
	bm := &binModel{
		whiten: old.whiten,
		gate:   old.gate,
		gamma:  old.gamma,
		users:  distinctLabels(append(append([]int{}, old.users...), labels...)),
		embeds: old.embeds.Clone(),
		ann:    old.ann.Clone(),
	}
	kernel := svm.RBF{Gamma: old.gamma}

	// New users' verification spheres; existing spheres are shared.
	bm.userGate = make(map[int]*svm.SVDD, len(old.userGate)+len(newUsers))
	for id, ug := range old.userGate {
		bm.userGate[id] = ug
	}
	for _, id := range newUsers {
		var ux [][]float64
		for i, l := range labels {
			if l == id {
				ux = append(ux, x[i])
			}
		}
		ug, err := svm.TrainSVDD(kernel, ux, a.cfg.SVDD)
		if err != nil {
			return nil, fmt.Errorf("train user %d SVDD: %w", id, err)
		}
		bm.userGate[id] = ug
	}

	// Extend the embedding set and index.
	var q []float32
	for i, v := range x {
		q = embed.Project(q, v)
		if err := bm.embeds.Append(labels[i], q); err != nil {
			return nil, fmt.Errorf("append embedding: %w", err)
		}
		if err := bm.ann.Add(bm.embeds.Len()-1, q); err != nil {
			return nil, fmt.Errorf("index embedding: %w", err)
		}
	}

	// Margin re-ranker: train only the new duels, sharing old pairs.
	// Past the user bound the shortlist is ranked by cosine similarity
	// alone, matching fitBinModel.
	if len(bm.users) > a.cfg.Identify.maxSVMUsers() {
		return bm, nil
	}
	added := make(map[int][][]float64, len(newUsers))
	for i, l := range labels {
		added[l] = append(added[l], x[i])
	}
	oldUsers := old.users
	exX, err := a.existingSamples(old, oldUsers, existing)
	if err != nil {
		return nil, err
	}
	if old.identify != nil {
		mc, err := svm.ExtendMultiClass(old.identify, kernel, exX, added, a.cfg.SVC)
		if err != nil {
			return nil, err
		}
		bm.identify = mc
	} else if len(bm.users) > 1 {
		// The bin previously had a single user (no ensemble to extend):
		// train the full one-vs-one SVM — with one existing class this is
		// still only the new duels.
		var ax [][]float64
		var al []int
		for _, id := range bm.users {
			for _, v := range exX[id] {
				ax = append(ax, v)
				al = append(al, id)
			}
			for _, v := range added[id] {
				ax = append(ax, v)
				al = append(al, id)
			}
		}
		mc, err := svm.TrainMultiClass(kernel, ax, al, a.cfg.SVC)
		if err != nil {
			return nil, fmt.Errorf("train identification SVM: %w", err)
		}
		bm.identify = mc
	}
	return bm, nil
}

// existingSamples extracts and whitens the current users' enrollment
// vectors that fall in old's bin — the existing-class samples the new SVM
// duels train against. Computed only when a bin actually extends its
// ensemble.
func (a *Authenticator) existingSamples(old *binModel, users []int, existing map[int][]*AcousticImage) (map[int][][]float64, error) {
	inBin := make(map[int]bool, len(users))
	for _, id := range users {
		inBin[id] = true
	}
	out := make(map[int][][]float64, len(users))
	for id, imgs := range existing {
		if !inBin[id] {
			continue
		}
		for _, img := range imgs {
			if img == nil || img.Image == nil {
				continue
			}
			if a.bins[int(math.Round(img.PlaneDistM/a.binWidth))] != old {
				continue
			}
			v := extractImage(a.extractor, img)
			if old.whiten != nil {
				v = old.whiten.Apply(v)
			}
			out[id] = append(out[id], v)
		}
	}
	for _, id := range users {
		if len(out[id]) == 0 {
			return nil, fmt.Errorf("missing enrollment images for existing user %d", id)
		}
	}
	return out, nil
}
