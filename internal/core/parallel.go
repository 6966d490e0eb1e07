package core

import (
	"runtime"
	"sync"
)

// parallel runs fn(w, i) for every task i in [0, n) over min(GOMAXPROCS, n)
// workers and returns once all of them are done. Tasks are handed out in
// index order; w in [0, workers) names the worker running the task, so a
// caller can keep one scratch buffer per worker (sized by
// runtime.GOMAXPROCS(0)). Worker 0 is the calling goroutine, so one worker
// (or n = 0) starts no goroutine.
//
// After the first error no further task starts; the tasks already running
// finish, and that first error is returned. A caller that honours a
// context returns ctx.Err() from fn.
func parallel(n int, fn func(w, i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if first != nil || next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	work := func(w int) {
		for i, ok := take(); ok; i, ok = take() {
			if err := fn(w, i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				return
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return first
}
