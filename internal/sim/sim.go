// Package sim is the experiment harness: a parallel trial runner that
// fans independent simulation trials across worker goroutines with one
// deterministic RNG stream per trial, plus plain-text table rendering for
// the experiment outputs.
//
// The design follows the repository-wide reproducibility rule: an
// experiment is a pure function of (code, master seed). Trial k always
// receives stream NewStream(seed, k) regardless of worker count or
// scheduling, so results are identical for -cpu=1 and -cpu=64.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/xrand"
)

// ErrInput flags invalid runner arguments.
var ErrInput = errors.New("sim: invalid input")

// TrialFunc runs one independent trial and returns its measurement. The
// rng is the trial's private stream; trial is the trial index.
type TrialFunc func(trial int, rng *xrand.RNG) (float64, error)

// Runner executes batches of trials in parallel.
type Runner struct {
	// Seed is the master seed; trial k uses stream (Seed, k).
	Seed uint64
	// Workers caps parallelism; <= 0 selects GOMAXPROCS.
	Workers int
}

// Run executes `trials` independent trials across Workers goroutines and
// returns their measurements in trial order. It is the library's
// unordered trial fan-out; campaigns and sweeps run on internal/batch's
// ordered trial loop instead, with the same stream per trial. A failure
// stops workers from claiming further trials (already-running trials
// finish), and every trial error that occurred is returned, combined
// with errors.Join in trial-index order and tagged with its trial index.
func (r Runner) Run(trials int, fn TrialFunc) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("%w: trials < 1", ErrInput)
	}
	if fn == nil {
		return nil, fmt.Errorf("%w: nil trial function", ErrInput)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type failure struct {
		trial int
		err   error
	}
	var (
		out      = make([]float64, trials)
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		failures []failure // one entry per failed trial
		wg       sync.WaitGroup
	)
	for w := min(workers, trials); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				k := int(next.Add(1) - 1)
				if k >= trials {
					return
				}
				v, err := fn(k, xrand.NewStream(r.Seed, uint64(k)))
				if err != nil {
					mu.Lock()
					failures = append(failures, failure{k, err})
					mu.Unlock()
					failed.Store(true)
					continue
				}
				out[k] = v
			}
		}()
	}
	wg.Wait()
	if len(failures) == 0 {
		return out, nil
	}
	slices.SortFunc(failures, func(a, b failure) int { return a.trial - b.trial })
	errs := make([]error, len(failures))
	for i, f := range failures {
		errs[i] = fmt.Errorf("trial %d: %w", f.trial, f.err)
	}
	return nil, errors.Join(errs...)
}

// RunMeans is a convenience wrapper returning the mean measurement.
func (r Runner) RunMeans(trials int, fn TrialFunc) (float64, error) {
	xs, err := r.Run(trials, fn)
	if err != nil {
		return 0, err
	}
	return stats.Mean(xs), nil
}
