package analysis

// This file is the single place where the module's architectural
// invariants are declared as data. DESIGN.md ("Architectural
// invariants") is the prose twin; when one changes, change both.

// Module is the import-path root of the project.
const Module = "echoimage"

// mathLayerStdBan is the standard-library ban for the pure numerical
// core: those packages may import each other and the non-I/O standard
// library, nothing else — the real-time sensing loop runs there, and a
// stray net or os dependency is an architecture bug.
var mathLayerStdBan = []string{"net", "os", "syscall"}

// DefaultSuite returns the analyzers configured for the echoimage tree:
// the declared import DAG, context discipline, the closed proto
// error-code set, the telemetry series-name contract, the float-comparison
// ban over the numerical core, and the tree-wide dataflow rules.
func DefaultSuite() []Analyzer {
	return []Analyzer{
		NewLayering(LayeringConfig{
			Module: Module,
			Packages: map[string]LayerRule{
				// ── pure math / DSP layer: no project deps, no I/O ──
				"echoimage/internal/dsp":    {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/cmat":   {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/array":  {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/chirp":  {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/aimage": {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/embed":  {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/index":  {ForbiddenStd: mathLayerStdBan},
				"echoimage/internal/beamform": {
					AllowedProject: []string{
						"echoimage/internal/array",
						"echoimage/internal/cmat",
						"echoimage/internal/dsp",
					},
					ForbiddenStd: mathLayerStdBan,
				},

				// ── sensing simulation and model layers ──
				"echoimage/internal/audio": {},
				"echoimage/internal/svm":   {},
				"echoimage/internal/sim": {AllowedProject: []string{
					"echoimage/internal/array",
					"echoimage/internal/chirp",
					"echoimage/internal/dsp",
				}},
				"echoimage/internal/body": {AllowedProject: []string{
					"echoimage/internal/array",
					"echoimage/internal/sim",
				}},
				"echoimage/internal/features": {AllowedProject: []string{
					"echoimage/internal/aimage",
				}},

				// ── core pipeline: all of the math, none of the serving
				// stack (telemetry flows through the StageRecorder seam;
				// proto/registry/daemon must never leak in) ──
				"echoimage/internal/core": {AllowedProject: []string{
					"echoimage/internal/aimage",
					"echoimage/internal/array",
					"echoimage/internal/beamform",
					"echoimage/internal/chirp",
					"echoimage/internal/cmat",
					"echoimage/internal/dsp",
					"echoimage/internal/embed",
					"echoimage/internal/features",
					"echoimage/internal/index",
					"echoimage/internal/svm",
				}},

				// ── evaluation layers ──
				"echoimage/internal/metrics": {},
				"echoimage/internal/dataset": {AllowedProject: []string{
					"echoimage/internal/array",
					"echoimage/internal/body",
					"echoimage/internal/chirp",
					"echoimage/internal/core",
					"echoimage/internal/sim",
				}},
				"echoimage/internal/experiments": {AllowedProject: []string{
					"echoimage/internal/aimage",
					"echoimage/internal/array",
					"echoimage/internal/body",
					"echoimage/internal/chirp",
					"echoimage/internal/core",
					"echoimage/internal/dataset",
					"echoimage/internal/embed",
					"echoimage/internal/index",
					"echoimage/internal/metrics",
					"echoimage/internal/sim",
				}},

				// ── serving stack: telemetry, proto and retry are
				// leaves; registry may use core + telemetry; only the
				// daemon wires proto + registry + telemetry + core
				// together. The cluster tier sits strictly above the
				// daemon protocol: it may speak proto and retry and
				// record telemetry, but must never import the daemon or
				// the sensing pipeline — a router routes frames, it does
				// not process captures. ──
				"echoimage/internal/proto":     {},
				"echoimage/internal/telemetry": {},
				"echoimage/internal/faultnet":  {},
				"echoimage/internal/retry":     {},
				"echoimage/internal/benchfmt":  {},
				"echoimage/internal/registry": {AllowedProject: []string{
					"echoimage/internal/core",
					"echoimage/internal/telemetry",
				}},
				"echoimage/internal/daemon": {AllowedProject: []string{
					"echoimage/internal/core",
					"echoimage/internal/proto",
					"echoimage/internal/registry",
					"echoimage/internal/telemetry",
				}},
				"echoimage/internal/cluster": {AllowedProject: []string{
					"echoimage/internal/proto",
					"echoimage/internal/retry",
					"echoimage/internal/telemetry",
				}},

				// ── tooling ──
				"echoimage/internal/analysis": {},

				// ── facade and wiring layers ──
				// The public facade re-exports the simulation + pipeline
				// API; it must never pull the serving stack into library
				// consumers.
				"echoimage": {AllowedProject: []string{
					"echoimage/internal/array",
					"echoimage/internal/body",
					"echoimage/internal/core",
					"echoimage/internal/dataset",
					"echoimage/internal/sim",
				}},
				"echoimage/examples/...": {AllowedProject: []string{"echoimage"}},
				"echoimage/cmd/...":      {AnyProject: true},
			},
		}),

		NewCtxDiscipline(),

		NewErrCodes(ErrCodesConfig{
			Packages:    []string{"echoimage/internal/daemon", "echoimage/internal/cluster"},
			ProtoPath:   "echoimage/internal/proto",
			CodePrefix:  "Code",
			CodedFunc:   "coded",
			ErrorStruct: "ErrorResponse",
			CodeField:   "Code",
		}),

		NewMetricNames(MetricNamesConfig{
			RegistryPath: "echoimage/internal/telemetry",
			RegistryType: "Registry",
			Methods:      map[string]int{"Counter": 0, "Gauge": 0, "Histogram": 0},
			Pattern:      MetricNamePattern,
		}),

		NewFloatEq(FloatEqConfig{
			Packages: []string{
				"echoimage/internal/dsp",
				"echoimage/internal/beamform",
				"echoimage/internal/cmat",
				"echoimage/internal/aimage",
			},
		}),

		// ── dataflow analyzers (lint v2) ──
		// Goroutine lifecycle, guarded-field locking, and proto-code
		// switch exhaustiveness run tree-wide: the invariants they
		// encode hold everywhere, not per layer.
		NewGoroutineLife(),
		NewLockGuard(),
		NewCodeSwitch(CodeSwitchConfig{
			ProtoPath:  "echoimage/internal/proto",
			CodePrefix: "Code",
		}),
	}
}
