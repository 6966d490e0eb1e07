package core

import "time"

// Pipeline stage names reported to a StageRecorder, in execution order
// through the full authentication pipeline.
const (
	StagePreprocess  = "preprocess"   // bandpass, analytic conversion, noise covariance
	StageRanging     = "ranging"      // beamformed matched-filter distance estimate
	StageImaging     = "imaging"      // MVDR acoustic image construction, all beeps
	StageFeatures    = "features"     // frozen-CNN feature extraction (+ whitening)
	StageIndexSearch = "index_search" // embedding projection + ANN shortlist lookup
	StageClassify    = "classify"     // candidate re-rank + SVDD gate decision
)

// StageRecorder receives the duration of each completed pipeline stage.
// It is the seam between the sensing pipeline and the observability
// layer: core stays free of a telemetry dependency (avoiding an import
// cycle once telemetry-aware packages build on core), while callers —
// internal/daemon feeding latency histograms and per-request trace
// spans, or a CLI printing timings — implement these two lines.
//
// Implementations must be safe for the concurrency of their call sites;
// a recorder handed to System.ProcessRecordedContext is only invoked from
// that call's goroutine.
type StageRecorder interface {
	RecordStage(stage string, d time.Duration)
}
