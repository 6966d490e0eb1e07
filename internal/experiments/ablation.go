package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/sim"
)

// RangingAblationRow is one variant of the distance-estimation design.
type RangingAblationRow struct {
	Variant string
	// MeanAbsErrM is the mean absolute error against the nominal stance
	// distance across users and sessions.
	MeanAbsErrM float64
	// SpreadM is the mean per-user cross-session estimate spread, the
	// stability that matters for imaging.
	SpreadM float64
	// Failures counts captures where no echo was found.
	Failures int
}

// RangingAblation compares the §V-B design choices: MVDR-beamformed vs.
// raw-channel correlation (the paper's motivating comparison) and the
// leading-edge vs. largest-peak vs. centroid echo pickers.
func RangingAblation(s Scale, users int) ([]RangingAblationRow, error) {
	if users < 2 {
		users = 2
	}
	roster := body.Roster()
	if users > len(roster) {
		users = len(roster)
	}
	const distance = 0.7

	type variant struct {
		name       string
		pick       core.EchoPickMode
		beamformed bool
	}
	variants := []variant{
		{"leading-edge + MVDR (ours)", core.EchoPickLeadingEdge, true},
		{"leading-edge, raw channel", core.EchoPickLeadingEdge, false},
		{"largest-peak + MVDR (paper)", core.EchoPickLargest, true},
		{"centroid + MVDR", core.EchoPickCentroid, true},
	}

	var rows []RangingAblationRow
	for _, v := range variants {
		cfg := s.PipelineConfig()
		cfg.EchoPick = v.pick
		est, err := core.NewDistanceEstimator(cfg, arrayGeometry())
		if err != nil {
			return nil, err
		}
		var absErr, spread float64
		var absN, spreadN, failures int
		for u := 0; u < users; u++ {
			var perSession []float64
			for _, session := range []int{1, 3} {
				spec := dataset.SessionSpec{
					Profile:   roster[u],
					Env:       sim.EnvLab,
					Noise:     sim.NoiseQuiet,
					DistanceM: distance,
					Session:   session,
					Beeps:     s.RangingBeeps,
					Seed:      int64(4000 + session),
				}
				cap, noiseOnly, err := dataset.Collect(spec)
				if err != nil {
					return nil, err
				}
				var de *core.DistanceEstimate
				if v.beamformed {
					de, err = est.Estimate(cap, noiseOnly)
				} else {
					de, err = est.EstimateWithoutBeamforming(cap, noiseOnly)
				}
				if err != nil {
					failures++
					continue
				}
				absErr += math.Abs(de.UserM - distance)
				absN++
				perSession = append(perSession, de.UserM)
			}
			if len(perSession) == 2 {
				spread += math.Abs(perSession[0] - perSession[1])
				spreadN++
			}
		}
		row := RangingAblationRow{Variant: v.name, Failures: failures}
		if absN > 0 {
			row.MeanAbsErrM = absErr / float64(absN)
		}
		if spreadN > 0 {
			row.SpreadM = spread / float64(spreadN)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteRangingAblation renders the comparison.
func WriteRangingAblation(w io.Writer, rows []RangingAblationRow) {
	fmt.Fprintln(w, "Ablation — distance estimation variants (0.7 m ground truth)")
	fmt.Fprintf(w, "%-30s %12s %14s %9s\n", "variant", "mean |err| m", "x-session spread", "failures")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12.3f %14.3f %9d\n", r.Variant, r.MeanAbsErrM, r.SpreadM, r.Failures)
	}
}

// AuthAblationRow is one variant of the authentication stack.
type AuthAblationRow struct {
	Variant            string
	RegisteredAccuracy float64
	SpooferDetection   float64
}

// AuthAblation re-runs the Figure 11 protocol under classifier and imaging
// design variants: delay-and-sum imaging (covariance shrunk fully to
// identity), WCCN whitening on, sub-band imaging on, scale-preserving
// features, and the paper's largest-peak ranging.
func AuthAblation(ctx context.Context, s Scale) ([]AuthAblationRow, error) {
	type variant struct {
		name string
		pipe func(*core.Config)
		auth func(*core.AuthConfig)
	}
	variants := []variant{
		{name: "default (fixed weights)"},
		{
			name: "adaptive MVDR (paper)",
			pipe: func(c *core.Config) { c.CovShrinkage = 0.3 },
		},
		{
			name: "pooled SVDD gate (paper)",
			auth: func(a *core.AuthConfig) { a.PooledGate = true; a.SVDD.RadiusSlack = 0.15 },
		},
		{
			name: "WCCN whitening (24 dirs)",
			auth: func(a *core.AuthConfig) { a.WhitenDirections = 24 },
		},
		{
			name: "sub-band imaging (3 bands)",
			pipe: func(c *core.Config) { c.ImagingSubBands = 3 },
		},
		{
			name: "standardized features",
			auth: func(a *core.AuthConfig) { a.Features.Standardize = true },
		},
		{
			name: "largest-peak ranging (paper)",
			pipe: func(c *core.Config) { c.EchoPick = core.EchoPickLargest },
		},
	}
	var rows []AuthAblationRow
	for _, v := range variants {
		pipeCfg := s.PipelineConfig()
		if v.pipe != nil {
			v.pipe(&pipeCfg)
		}
		authCfg := core.DefaultAuthConfig()
		if v.auth != nil {
			v.auth(&authCfg)
		}
		res, err := figure11WithConfig(ctx, s, authCfg, pipeCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		rows = append(rows, AuthAblationRow{
			Variant:            v.name,
			RegisteredAccuracy: res.RegisteredAccuracy,
			SpooferDetection:   res.SpooferDetection,
		})
	}
	return rows, nil
}

// WriteAuthAblation renders the comparison.
func WriteAuthAblation(w io.Writer, rows []AuthAblationRow) {
	fmt.Fprintln(w, "Ablation — authentication stack variants (Figure 11 protocol)")
	fmt.Fprintf(w, "%-30s %12s %12s\n", "variant", "registered", "spoof rej")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12.4f %12.4f\n", r.Variant, r.RegisteredAccuracy, r.SpooferDetection)
	}
}
