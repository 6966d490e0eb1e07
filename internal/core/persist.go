package core

import (
	"encoding/json"
	"fmt"
	"io"

	"echoimage/internal/embed"
	"echoimage/internal/features"
	"echoimage/internal/index"
	"echoimage/internal/svm"
)

// modelFormatVersion is the only snapshot format this build reads and
// writes. Version 2 added the identification embedding set + ANN index,
// the fitted kernel width and the full AuthConfig per snapshot; version 1
// snapshots (no embedding space) are rejected and must be retrained.
const modelFormatVersion = 2

// authenticatorState is the on-disk form of a trained Authenticator.
// Encoding is deterministic: encoding/json sorts map keys and binary
// blobs are stable serializations, so Save produces byte-identical output
// for the same model.
type authenticatorState struct {
	Version  int                  `json:"version"`
	Features features.Config      `json:"features"`
	Config   *AuthConfig          `json:"config,omitempty"`
	BinWidth float64              `json:"bin_width_m"`
	Users    []int                `json:"users"`
	Bins     map[string]*binState `json:"bins"`
}

type binState struct {
	Users    []int                     `json:"users"`
	Gate     *svm.SVDDState            `json:"gate"`
	UserGate map[string]*svm.SVDDState `json:"user_gates,omitempty"`
	Identify *svm.MultiClassState      `json:"identify,omitempty"`
	Whiten   *whitenerState            `json:"whiten,omitempty"`
	Gamma    float64                   `json:"gamma,omitempty"`
	Embeds   []byte                    `json:"embeds,omitempty"` // embed.Set binary form
	Index    []byte                    `json:"index,omitempty"`  // index.Index binary form
}

type whitenerState struct {
	Dirs  [][]float64 `json:"dirs"`
	Scale []float64   `json:"scale"`
	Dim   int         `json:"dim"`
}

// Save serializes the trained authenticator as JSON, so a daemon can
// persist its model across restarts without re-enrolling users.
func (a *Authenticator) Save(w io.Writer) error {
	cfg := a.cfg
	state := authenticatorState{
		Version:  modelFormatVersion,
		Features: a.featCfg,
		Config:   &cfg,
		BinWidth: a.binWidth,
		Users:    a.Users(),
		Bins:     make(map[string]*binState, len(a.bins)),
	}
	for bin, bm := range a.bins {
		bs := &binState{Users: bm.users, Gamma: bm.gamma}
		gate, err := bm.gate.Export()
		if err != nil {
			return fmt.Errorf("core: export gate (bin %d): %w", bin, err)
		}
		bs.Gate = gate
		if len(bm.userGate) > 0 {
			bs.UserGate = make(map[string]*svm.SVDDState, len(bm.userGate))
			for id, ug := range bm.userGate {
				st, err := ug.Export()
				if err != nil {
					return fmt.Errorf("core: export user %d gate (bin %d): %w", id, bin, err)
				}
				bs.UserGate[fmt.Sprint(id)] = st
			}
		}
		if bm.identify != nil {
			mc, err := bm.identify.Export()
			if err != nil {
				return fmt.Errorf("core: export identifier (bin %d): %w", bin, err)
			}
			bs.Identify = mc
		}
		if bm.whiten != nil {
			bs.Whiten = exportWhitener(bm.whiten)
		}
		if bm.embeds != nil {
			if bs.Embeds, err = bm.embeds.MarshalBinary(); err != nil {
				return fmt.Errorf("core: export embeddings (bin %d): %w", bin, err)
			}
		}
		if bm.ann != nil {
			if bs.Index, err = bm.ann.MarshalBinary(); err != nil {
				return fmt.Errorf("core: export index (bin %d): %w", bin, err)
			}
		}
		state.Bins[fmt.Sprint(bin)] = bs
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&state); err != nil {
		return fmt.Errorf("core: encode model: %w", err)
	}
	return nil
}

// LoadAuthenticator restores a model saved with Save. Snapshots of any
// other format version are rejected.
func LoadAuthenticator(r io.Reader) (*Authenticator, error) {
	var state authenticatorState
	if err := json.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if state.Version != modelFormatVersion {
		return nil, fmt.Errorf("core: model format version %d, want %d (retrain to upgrade)", state.Version, modelFormatVersion)
	}
	if state.Config == nil {
		return nil, fmt.Errorf("core: model snapshot has no config")
	}
	ext, err := features.NewExtractor(state.Features)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild extractor: %w", err)
	}
	auth := &Authenticator{
		extractor: ext,
		featCfg:   state.Features,
		cfg:       *state.Config,
		bins:      make(map[int]*binModel, len(state.Bins)),
		binWidth:  state.BinWidth,
		users:     state.Users,
	}
	for key, bs := range state.Bins {
		var bin int
		if _, err := fmt.Sscanf(key, "%d", &bin); err != nil {
			return nil, fmt.Errorf("core: bad bin key %q", key)
		}
		bm := &binModel{users: bs.Users, gamma: bs.Gamma}
		gate, err := svm.RestoreSVDD(bs.Gate)
		if err != nil {
			return nil, fmt.Errorf("core: restore gate (bin %d): %w", bin, err)
		}
		bm.gate = gate
		if len(bs.UserGate) > 0 {
			bm.userGate = make(map[int]*svm.SVDD, len(bs.UserGate))
			for idKey, st := range bs.UserGate {
				var id int
				if _, err := fmt.Sscanf(idKey, "%d", &id); err != nil {
					return nil, fmt.Errorf("core: bad user key %q", idKey)
				}
				ug, err := svm.RestoreSVDD(st)
				if err != nil {
					return nil, fmt.Errorf("core: restore user %d gate (bin %d): %w", id, bin, err)
				}
				bm.userGate[id] = ug
			}
		}
		if bs.Identify != nil {
			mc, err := svm.RestoreMultiClass(bs.Identify)
			if err != nil {
				return nil, fmt.Errorf("core: restore identifier (bin %d): %w", bin, err)
			}
			bm.identify = mc
		}
		if bs.Whiten != nil {
			bm.whiten = restoreWhitener(bs.Whiten)
		}
		if (bs.Embeds == nil) != (bs.Index == nil) {
			return nil, fmt.Errorf("core: bin %d has embeddings or index without its counterpart", bin)
		}
		if bs.Embeds != nil {
			es, err := embed.UnmarshalSet(bs.Embeds)
			if err != nil {
				return nil, fmt.Errorf("core: restore embeddings (bin %d): %w", bin, err)
			}
			ann, err := index.Unmarshal(bs.Index)
			if err != nil {
				return nil, fmt.Errorf("core: restore index (bin %d): %w", bin, err)
			}
			if ann.Len() != es.Len() || ann.Dim() != es.Dim() {
				return nil, fmt.Errorf("core: bin %d index (%d×%d) does not match embeddings (%d×%d)",
					bin, ann.Len(), ann.Dim(), es.Len(), es.Dim())
			}
			bm.embeds, bm.ann = es, ann
		}
		auth.bins[bin] = bm
	}
	return auth, nil
}

func exportWhitener(w *Whitener) *whitenerState {
	return &whitenerState{Dirs: w.dirs, Scale: w.scale, Dim: w.dim}
}

func restoreWhitener(s *whitenerState) *Whitener {
	return &Whitener{dirs: s.Dirs, scale: s.Scale, dim: s.Dim}
}
