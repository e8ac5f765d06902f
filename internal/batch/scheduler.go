package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/repro/cobra/internal/xrand"
)

// ForEach: the unordered trial fan-out under sim.Runner. Campaigns and
// sweeps run on the ordered trial loop in cellsched.go instead. In both,
// trial k always receives the RNG stream NewStream(seed, k), so which
// worker runs a trial — and how many workers exist — can never change
// its result.

// ErrInput flags invalid scheduler or campaign arguments.
var ErrInput = errors.New("batch: invalid input")

// ForEach runs fn for every trial index 0..trials-1 across `workers`
// goroutines (<= 0 selects GOMAXPROCS); fn for trial k receives the
// private stream NewStream(seed, k).
//
// Error handling: the first failure (or context cancellation) stops
// workers from claiming further trials — already-running trials finish —
// and ForEach returns every trial error that occurred, combined with
// errors.Join in trial-index order. No error is silently discarded.
func ForEach(ctx context.Context, seed uint64, workers, trials int, fn func(trial int, rng *xrand.RNG) error) error {
	if trials < 1 {
		return fmt.Errorf("%w: trials < 1", ErrInput)
	}
	if fn == nil {
		return fmt.Errorf("%w: nil trial function", ErrInput)
	}
	workers = min(trialWorkers(workers), trials)

	type failure struct {
		trial int
		err   error
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		failures []failure // one entry per failed trial
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= trials {
					return
				}
				if err := fn(k, xrand.NewStream(seed, uint64(k))); err != nil {
					mu.Lock()
					failures = append(failures, failure{k, err})
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(failures, func(i, j int) bool { return failures[i].trial < failures[j].trial })
	errs := make([]error, 0, len(failures)+1)
	for _, f := range failures {
		errs = append(errs, fmt.Errorf("trial %d: %w", f.trial, f.err))
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// trialWorkers resolves a Workers setting: <= 0 selects GOMAXPROCS.
func trialWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
