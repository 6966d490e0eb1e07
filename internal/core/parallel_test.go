package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test and restores the
// previous value when it ends. No test in this package runs in parallel,
// so the change cannot leak into another test.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelRunsEveryTaskOnce checks that each task runs exactly once
// and that the worker index stays in [0, min(GOMAXPROCS, n)).
func TestParallelRunsEveryTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		for _, n := range []int{1, 2, 3, 100} {
			workers := min(procs, n)
			runs := make([]int32, n)
			var badW atomic.Int32
			badW.Store(-1)
			err := parallel(n, func(w, i int) error {
				if w < 0 || w >= workers {
					badW.Store(int32(w))
				}
				atomic.AddInt32(&runs[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("procs %d n %d: %v", procs, n, err)
			}
			if w := badW.Load(); w >= 0 {
				t.Errorf("procs %d n %d: worker index %d outside [0, %d)", procs, n, w, workers)
			}
			for i, c := range runs {
				if c != 1 {
					t.Errorf("procs %d n %d: task %d ran %d times", procs, n, i, c)
				}
			}
		}
	}
}

// TestParallelZeroTasks checks that n = 0 calls nothing and starts no
// goroutine, and that a single task runs on the calling goroutine. The
// goroutine count may only fall (a goroutine an earlier test left behind
// can exit meanwhile); it rises if the helper starts one.
func TestParallelZeroTasks(t *testing.T) {
	setGOMAXPROCS(t, 4)
	before := runtime.NumGoroutine()
	if err := parallel(0, func(w, i int) error {
		t.Errorf("task %d ran with n = 0", i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d before, %d after n = 0", before, after)
	}
	var during int
	if err := parallel(1, func(w, i int) error {
		during = runtime.NumGoroutine()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if during > before {
		t.Errorf("goroutines %d before, %d while the only task ran", before, during)
	}
}

// TestParallelStopsAfterError checks that the first error comes back and
// that, once a task has failed, only the tasks already running finish:
// tasks are handed out in index order, the failing task returns at once,
// and every other task sleeps, so a worker that keeps taking tasks after
// the failure would run far past the bound.
func TestParallelStopsAfterError(t *testing.T) {
	const n, failAt = 1000, 10
	errFail := errors.New("task failed")
	for _, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		var started atomic.Int32
		err := parallel(n, func(w, i int) error {
			started.Add(1)
			if i == failAt {
				return fmt.Errorf("task %d: %w", i, errFail)
			}
			time.Sleep(5 * time.Millisecond)
			return nil
		})
		if !errors.Is(err, errFail) {
			t.Fatalf("procs %d: error %v, want the task's", procs, err)
		}
		// Tasks 0..failAt, plus for each other worker the task it holds
		// and at most one it takes before the failure is recorded.
		if got, limit := started.Load(), int32(failAt+1+2*(procs-1)); got > limit {
			t.Errorf("procs %d: %d tasks started, want at most %d", procs, got, limit)
		}
	}
}

// TestParallelFirstError checks that with several failing tasks the one
// handed out first wins when there is one worker.
func TestParallelFirstError(t *testing.T) {
	setGOMAXPROCS(t, 1)
	err := parallel(20, func(w, i int) error {
		if i >= 5 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 5" {
		t.Fatalf("error %v, want task 5's", err)
	}
}

// TestParallelStopsAfterCancel checks the context idiom: a task that
// cancels makes every later task return ctx.Err(), and no task body runs
// after the cancel except those already running.
func TestParallelStopsAfterCancel(t *testing.T) {
	const n, cancelAt = 1000, 10
	for _, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var ran, calls int
		err := parallel(n, func(w, i int) error {
			mu.Lock()
			calls++
			mu.Unlock()
			if err := ctx.Err(); err != nil {
				return err
			}
			mu.Lock()
			ran++
			mu.Unlock()
			if i == cancelAt {
				cancel()
				return nil
			}
			time.Sleep(5 * time.Millisecond)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("procs %d: error %v, want context.Canceled", procs, err)
		}
		if limit := cancelAt + 1 + 2*(procs-1); ran > limit || calls > limit+procs {
			t.Errorf("procs %d: %d bodies ran over %d calls, want at most %d bodies", procs, ran, calls, limit)
		}
	}
}
