// Package registry owns the model lifecycle of the EchoImage daemon: it
// stores enrollment images, trains versioned authenticator snapshots on a
// single-flight background worker, and publishes each trained model by an
// atomic pointer swap so authentication never waits on training or disk.
//
// Ownership split with internal/daemon: the daemon is a transport (framing,
// deadlines, request dispatch); the registry is the state (enrollment,
// the live model, retrain scheduling, persistence). Readers — authenticate
// and status paths — touch only atomic snapshots; writers go through a
// short mutex that is never held across training or I/O.
package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"echoimage/internal/core"
	"echoimage/internal/telemetry"
)

// TrainFunc fits an authenticator from an enrollment snapshot. The
// registry cancels the context when the snapshot becomes obsolete (newer
// enrollment arrived with another retrain queued behind it).
type TrainFunc func(ctx context.Context, cfg core.AuthConfig, enrollment map[int][]*core.AcousticImage) (*core.Authenticator, error)

// ErrClosed is returned by operations on a closed registry.
var ErrClosed = errors.New("registry: closed")

// ModelInfo is per-version metadata for a published model.
type ModelInfo struct {
	// Version counts published models, starting at 1. A model loaded
	// from disk at startup is version 1 with Loaded set.
	Version int
	// Users and Images describe the enrollment snapshot the model was
	// trained from (zero for a loaded model, whose pools are unknown).
	Users  int
	Images int
	// TrainDuration is the wall time of the successful training run.
	TrainDuration time.Duration
	// TrainedAt is when the model was published.
	TrainedAt time.Time
	// Loaded marks a model installed from disk rather than trained here.
	Loaded bool
	// Extended marks a model produced by incremental extension of the
	// previous snapshot (only the new users were fit) rather than a full
	// retrain.
	Extended bool
	// IdentifyMode is the identification engine the model serves with
	// ("ann" or "exhaustive").
	IdentifyMode string
	// IndexSize is the number of enrollment embeddings across the model's
	// ANN indexes (0 in exhaustive mode).
	IndexSize int
}

// Snapshot pairs an immutable trained model with its metadata. Snapshots
// are never mutated after publication; readers may hold one across a swap.
type Snapshot struct {
	Auth *core.Authenticator
	Info ModelInfo
}

// Stats is the enrollment-store summary, maintained as an atomic snapshot
// so status requests never contend with enrollment writes.
type Stats struct {
	Users  []int // ascending registered user IDs
	Images int
}

// Registry is the enrollment store plus versioned model registry.
// Construct with New; methods are safe for concurrent use.
type Registry struct {
	cfg    core.AuthConfig
	train  TrainFunc
	extend bool // incremental extension permitted (default trainer only)
	logf   func(string, ...any)
	// modelPath, when non-empty, receives an atomically renamed copy of
	// every trained model (written by the worker, off the request path).
	modelPath string
	// stateDir, when non-empty, holds per-user state blobs (user-N.json)
	// written by FlushUser/ImportUser and reloaded by RestoreState.
	stateDir string

	model atomic.Pointer[Snapshot]
	stats atomic.Pointer[Stats]

	mu         sync.Mutex
	enrollment map[int][]*core.AcousticImage // guarded by mu
	numImages  int                           // guarded by mu
	// trainedCounts records, per user, how many enrollment images the live
	// model was fit from. Image slices are append-only, so an unchanged
	// count means unchanged data; a snapshot whose only delta is brand-new
	// users qualifies for incremental extension. Nil when the live model's
	// training set is unknown (loaded from disk, or custom trainer).
	// guarded by mu
	trainedCounts map[int]int
	gen           int                // bumped on every enrollment write; guarded by mu
	dirty         bool               // guarded by mu
	trainGen      int                // generation of the in-flight train's snapshot; guarded by mu
	cancel        context.CancelFunc // guarded by mu
	waiters       []waiter           // guarded by mu
	lastErr       error              // guarded by mu
	version       int                // guarded by mu
	closed        bool               // guarded by mu

	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	met regMetrics
}

// regMetrics is the registry's runtime instrumentation: retrain churn,
// training durations, and the live snapshot version. All fields are
// registered at construction so updates are single atomic operations.
type regMetrics struct {
	trainsStarted   *telemetry.Counter
	trainsCoalesced *telemetry.Counter
	trainsCancelled *telemetry.Counter
	trainsFailed    *telemetry.Counter
	trainsExtended  *telemetry.Counter
	persistFailures *telemetry.Counter
	trainSeconds    *telemetry.Histogram
	modelVersion    *telemetry.Gauge
	enrolledUsers   *telemetry.Gauge
	enrolledImages  *telemetry.Gauge
}

func newRegMetrics(tel *telemetry.Registry) regMetrics {
	return regMetrics{
		trainsStarted: tel.Counter("echoimage_registry_trains_started_total",
			"Training runs begun by the retrain worker."),
		trainsCoalesced: tel.Counter("echoimage_registry_trains_coalesced_total",
			"Retrain requests absorbed by an already pending or covering run."),
		trainsCancelled: tel.Counter("echoimage_registry_trains_cancelled_total",
			"In-flight training runs cancelled because their snapshot went stale."),
		trainsFailed: tel.Counter("echoimage_registry_trains_failed_total",
			"Training runs that ended in an error (stale-cancelled runs excluded)."),
		trainsExtended: tel.Counter("echoimage_registry_trains_extended_total",
			"Training runs satisfied by incremental model extension (only new users fit)."),
		persistFailures: tel.Counter("echoimage_registry_persist_failures_total",
			"Model persistence attempts that failed after a successful train (the in-memory model still serves)."),
		trainSeconds: tel.Histogram("echoimage_registry_train_seconds",
			"Wall time of successful training runs.", telemetry.TrainBuckets),
		modelVersion: tel.Gauge("echoimage_registry_model_version",
			"Version of the live published model snapshot (0 before the first)."),
		enrolledUsers: tel.Gauge("echoimage_registry_enrolled_users",
			"Users with at least one enrollment image."),
		enrolledImages: tel.Gauge("echoimage_registry_enrolled_images",
			"Enrollment images across all users."),
	}
}

type waiter struct {
	gen int
	ch  chan error
}

// Options configures a Registry.
type Options struct {
	// ModelPath, when set, receives the serialized model after every
	// successful train (atomic temp-file + rename).
	ModelPath string
	// StateDir, when set, is the shard-local per-user state directory:
	// FlushUser and ImportUser durably write user-N.json blobs there and
	// RestoreState reloads them at startup. Created if absent.
	StateDir string
	// Train overrides the training function; nil means
	// core.TrainAuthenticator. A custom trainer also disables incremental
	// extension: its models are not necessarily extensions of each other.
	Train TrainFunc
	// Logf receives worker diagnostics; nil silences them.
	Logf func(string, ...any)
	// Telemetry receives the registry's runtime metrics; nil records
	// into a private unexposed registry so update paths stay branch-free.
	Telemetry *telemetry.Registry
}

// New builds a registry and starts its retrain worker. Call Close to stop
// the worker and release the registry.
func New(cfg core.AuthConfig, opts Options) *Registry {
	train := opts.Train
	extend := train == nil
	if train == nil {
		train = core.TrainAuthenticator
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	if opts.StateDir != "" {
		if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
			// Flush/restore calls will surface the failure per operation.
			logf("registry: create state dir %s: %v", opts.StateDir, err)
		}
	}
	r := &Registry{
		cfg:        cfg,
		train:      train,
		extend:     extend,
		logf:       logf,
		modelPath:  opts.ModelPath,
		stateDir:   opts.StateDir,
		enrollment: make(map[int][]*core.AcousticImage),
		wake:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		met:        newRegMetrics(tel),
	}
	r.stats.Store(&Stats{})
	go r.worker()
	return r
}

// Close stops the retrain worker, cancelling any in-flight train, and
// fails pending synchronous retrains with ErrClosed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	if r.cancel != nil {
		r.cancel()
	}
	close(r.quit)
	r.mu.Unlock()
	<-r.done
}

// AddImages appends enrollment images for a user. It never blocks on
// training or persistence.
func (r *Registry) AddImages(userID int, imgs []*core.AcousticImage) error {
	if userID <= 0 {
		return fmt.Errorf("registry: user ID %d must be positive", userID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.enrollment[userID] = append(r.enrollment[userID], imgs...)
	r.numImages += len(imgs)
	r.gen++
	r.publishStatsLocked()
	return nil
}

// publishStatsLocked refreshes the atomic enrollment summary; the caller
// holds r.mu.
func (r *Registry) publishStatsLocked() {
	users := make([]int, 0, len(r.enrollment))
	for id := range r.enrollment {
		users = append(users, id)
	}
	sort.Ints(users)
	r.stats.Store(&Stats{Users: users, Images: r.numImages})
	r.met.enrolledUsers.Set(int64(len(users)))
	r.met.enrolledImages.Set(int64(r.numImages))
}

// RequestRetrain queues a background retrain and returns immediately.
// Requests coalesce: any number of calls while a train is pending or in
// flight produce at most one further training run, over the freshest
// enrollment snapshot. An in-flight train over an already-stale snapshot
// is cancelled so the worker restarts on current data.
func (r *Registry) RequestRetrain() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.requestRetrainLocked()
	return nil
}

func (r *Registry) requestRetrainLocked() {
	if r.cancel != nil && r.trainGen == r.gen {
		r.met.trainsCoalesced.Inc()
		return // the in-flight train already covers the current data
	}
	if r.dirty {
		// A pending (not yet started) run will pick up the current data.
		r.met.trainsCoalesced.Inc()
	}
	r.dirty = true
	if r.cancel != nil {
		r.met.trainsCancelled.Inc()
		r.cancel() // obsolete snapshot; the worker will re-run
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Retrain queues a retrain and blocks until a training run covering the
// current enrollment generation completes, returning its error. This is
// the v1 synchronous semantics; the train itself still runs on the worker
// so concurrent authentications are never stalled. A caller abandoning
// the wait (ctx cancelled) deregisters its waiter, so expired callers
// cannot accumulate in the registry.
func (r *Registry) Retrain(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	ch := make(chan error, 1)
	r.waiters = append(r.waiters, waiter{gen: r.gen, ch: ch})
	r.requestRetrainLocked()
	r.mu.Unlock()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		// Remove our waiter so it is not parked forever. If the worker
		// already took it, the pending notification lands in the buffered
		// channel and is garbage-collected with it.
		r.mu.Lock()
		for i, w := range r.waiters {
			if w.ch == ch {
				r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
		return ctx.Err()
	}
}

// worker is the single-flight retrain loop: it drains the dirty flag,
// trains over a snapshot of the enrollment pools, publishes the result by
// atomic swap, persists off the lock, and repeats until the flag stays
// clear.
func (r *Registry) worker() {
	defer close(r.done)
	for {
		select {
		case <-r.quit:
			r.failWaiters(ErrClosed)
			return
		case <-r.wake:
		}
		for {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				r.failWaiters(ErrClosed)
				return
			}
			if !r.dirty {
				r.mu.Unlock()
				break
			}
			r.dirty = false
			gen := r.gen
			snap := make(map[int][]*core.AcousticImage, len(r.enrollment))
			for id, imgs := range r.enrollment {
				snap[id] = imgs // image slices are append-only; sharing is safe
			}
			users, images := len(snap), r.numImages
			add := r.extendDeltaLocked(snap)
			//echoimage:lint-ignore ctxdiscipline train contexts are rooted at the worker, not a request: cancellation comes from Close and stale-train preemption, never a caller deadline
			ctx, cancel := context.WithCancel(context.Background())
			r.trainGen = gen
			r.cancel = cancel
			r.mu.Unlock()

			r.met.trainsStarted.Inc()
			start := time.Now()
			auth, extended, err := r.fitSnapshot(ctx, snap, add)
			elapsed := time.Since(start)
			cancel()

			r.mu.Lock()
			r.cancel = nil
			if err != nil {
				if r.dirty && ctx.Err() != nil {
					// Cancelled because fresher data queued a re-run:
					// waiters stay parked; the covering train resolves them.
					r.mu.Unlock()
					continue
				}
				r.lastErr = err
				notify := r.takeWaitersLocked(gen)
				r.mu.Unlock()
				r.met.trainsFailed.Inc()
				r.logf("registry: train failed: %v", err)
				for _, w := range notify {
					w.ch <- err
				}
				continue
			}
			r.version++
			info := ModelInfo{
				Version:       r.version,
				Users:         users,
				Images:        images,
				TrainDuration: elapsed,
				TrainedAt:     time.Now(),
				Extended:      extended,
				IdentifyMode:  string(auth.IdentifyMode()),
				IndexSize:     auth.IndexSize(),
			}
			r.model.Store(&Snapshot{Auth: auth, Info: info})
			r.trainedCounts = make(map[int]int, len(snap))
			for id, imgs := range snap {
				r.trainedCounts[id] = len(imgs)
			}
			if extended {
				r.met.trainsExtended.Inc()
			}
			r.lastErr = nil
			notify := r.takeWaitersLocked(gen)
			r.mu.Unlock()
			r.met.trainSeconds.ObserveDuration(elapsed)
			r.met.modelVersion.Set(int64(info.Version))

			how := "trained"
			if extended {
				how = "extended"
			}
			r.logf("registry: published model v%d (%d users, %d images, %s in %v)",
				info.Version, users, images, how, elapsed.Round(time.Millisecond))
			if r.modelPath != "" {
				if perr := persist(r.modelPath, auth); perr != nil {
					// The in-memory model serves fine, but a silent
					// persistence failure means a restart would lose it:
					// count it and surface it through LastError/model_info
					// until a later train persists successfully.
					perr = fmt.Errorf("persist model v%d: %w", info.Version, perr)
					r.met.persistFailures.Inc()
					r.mu.Lock()
					r.lastErr = perr
					r.mu.Unlock()
					r.logf("registry: %v", perr)
				}
			}
			for _, w := range notify {
				w.ch <- nil
			}
		}
	}
}

// extendDeltaLocked decides whether the next model can be built by
// incremental extension: the live model must support it, its training set
// must be known and unchanged for every already-registered user, and the
// snapshot's only delta must be brand-new users. It returns those users'
// images, or nil for a full retrain. The caller holds r.mu.
func (r *Registry) extendDeltaLocked(snap map[int][]*core.AcousticImage) map[int][]*core.AcousticImage {
	if !r.extend || r.trainedCounts == nil {
		return nil
	}
	live := r.model.Load()
	if live == nil || live.Auth == nil || !live.Auth.CanExtend() {
		return nil
	}
	add := make(map[int][]*core.AcousticImage)
	for id, imgs := range snap {
		trained, ok := r.trainedCounts[id]
		if !ok {
			add[id] = imgs
			continue
		}
		if trained != len(imgs) {
			return nil // existing user gained images: full retrain
		}
	}
	if len(add) == 0 || len(add) == len(snap) {
		return nil // nothing new, or no prior users to extend from
	}
	for id := range r.trainedCounts {
		if _, ok := snap[id]; !ok {
			return nil // a trained user vanished from the store
		}
	}
	return add
}

// fitSnapshot builds the next model: by incremental extension of the live
// model when the delta allows it (falling back to a full train if the
// extension fails for a model-shape reason), a full training run
// otherwise. It reports whether the published model was extended.
func (r *Registry) fitSnapshot(ctx context.Context, snap, add map[int][]*core.AcousticImage) (*core.Authenticator, bool, error) {
	if add != nil {
		existing := make(map[int][]*core.AcousticImage, len(snap)-len(add))
		for id, imgs := range snap {
			if _, ok := add[id]; !ok {
				existing[id] = imgs
			}
		}
		live := r.model.Load()
		auth, err := live.Auth.ExtendContext(ctx, add, existing)
		if err == nil {
			return auth, true, nil
		}
		if ctx.Err() != nil {
			return nil, false, err
		}
		r.logf("registry: incremental extension failed (%v); falling back to full retrain", err)
	}
	auth, err := r.train(ctx, r.cfg, snap)
	return auth, false, err
}

// takeWaitersLocked removes and returns the waiters whose enrollment
// generation is covered by a train over generation gen; the caller holds
// r.mu.
func (r *Registry) takeWaitersLocked(gen int) []waiter {
	var notify, keep []waiter
	for _, w := range r.waiters {
		if w.gen <= gen {
			notify = append(notify, w)
		} else {
			keep = append(keep, w)
		}
	}
	r.waiters = keep
	return notify
}

func (r *Registry) failWaiters(err error) {
	r.mu.Lock()
	ws := r.waiters
	r.waiters = nil
	r.mu.Unlock()
	for _, w := range ws {
		w.ch <- err
	}
}

// persist writes the model atomically and durably.
func persist(path string, auth *core.Authenticator) error {
	return writeDurable(path, func(f *os.File) error { return auth.Save(f) })
}

// writeDurable writes a file atomically and durably: temp file in the
// destination directory, fsync, rename, then fsync the directory — so a
// crash at any point leaves either the previous content or the new one,
// never a truncated file, and the rename itself survives a power loss.
func writeDurable(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".state-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Install publishes an externally built model (typically loaded from
// disk at startup) as the next version.
func (r *Registry) Install(auth *core.Authenticator) {
	r.mu.Lock()
	r.version++
	info := ModelInfo{
		Version:      r.version,
		TrainedAt:    time.Now(),
		Loaded:       true,
		IdentifyMode: string(auth.IdentifyMode()),
		IndexSize:    auth.IndexSize(),
	}
	r.model.Store(&Snapshot{Auth: auth, Info: info})
	// The loaded model's training set is unknown: the next enrollment
	// change forces a full retrain rather than an extension.
	r.trainedCounts = nil
	r.met.modelVersion.Set(int64(info.Version))
	r.mu.Unlock()
}

// Snapshot returns the current published model, or nil before the first
// train. The returned snapshot is immutable.
func (r *Registry) Snapshot() *Snapshot { return r.model.Load() }

// Stats returns the enrollment-store summary from its atomic snapshot.
func (r *Registry) Stats() Stats { return *r.stats.Load() }

// LastError reports the most recent training failure, cleared by the next
// successful train.
func (r *Registry) LastError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}
