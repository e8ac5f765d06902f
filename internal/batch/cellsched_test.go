package batch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/obs"
)

// Adversarial completion-order tests: stub trials that finish in exactly
// the order the test dictates — reverse, random, or worst-case-for-the-
// window — must still produce the strict (cell, trial)-ordered stream and
// in-order per-cell aggregates. This pins the reorder buffer itself,
// independent of real trial timing: the happy path where trials happen
// to finish in order proves nothing about it.

// stubPos is one (cell, trial) unit of a stub schedule.
type stubPos struct{ cell, trial int }

// stubResult is the synthetic measurement for (cell, trial): unique per
// pair so any reordering or loss is visible in the committed stream.
func stubResult(cell, trial int) TrialResult {
	return TrialResult{Trial: trial, Rounds: 1000*cell + trial}
}

// stubSchedule runs n stub cells of `trials` trials under the trial loop
// with `cellWorkers` open cells and cellWorkers × workers goroutines.
// Every trial announces itself, then blocks until the controller releases
// it; the controller waits until the loop has claimed every trial it can
// and then releases the running trial chosen by pick — so the
// *completion* order is exactly the pick order, regardless of Go
// scheduling. The trial at fail (if any) returns an error when released;
// from then on the controller releases whatever runs, in any order.
func stubSchedule(t *testing.T, n, trials, cellWorkers, workers int, fail stubPos, pick func(running []stubPos) stubPos) ([]CellResult, []*Aggregate, []CellPhase, error) {
	t.Helper()
	started := make(chan stubPos)
	release := make(map[stubPos]chan struct{}, n*trials)
	for c := 0; c < n; c++ {
		for k := 0; k < trials; k++ {
			release[stubPos{c, k}] = make(chan struct{})
		}
	}

	var phaseMu sync.Mutex
	phases := make([]CellPhase, n)
	for i := range phases {
		phases[i] = CellQueued
	}

	loop := &trialLoop{
		cells:   n,
		trials:  trials,
		window:  cellWorkers,
		workers: cellWorkers * workers,
		trial: func(_ *engine.Workspace, cell, k int) (TrialResult, error) {
			p := stubPos{cell, k}
			started <- p
			<-release[p]
			if p == fail {
				return TrialResult{}, fmt.Errorf("stub trial %d/%d exploded", cell, k)
			}
			return stubResult(cell, k), nil
		},
		wrap: func(cell int, err error) error { return fmt.Errorf("cell %d (stub): %w", cell, err) },
		onPhase: func(cell int, ph CellPhase) {
			phaseMu.Lock()
			phases[cell] = ph
			phaseMu.Unlock()
		},
	}

	// Controller: let the loop claim all it can, then release the
	// adversary's choice. The model mirrors the loop's: claims are in
	// flat (cell, trial) order; a cell commits once all its trials are
	// released (the consecutive fully released cells from 0 are
	// committed); claims stop at the end of the window, cellWorkers cells
	// past the first uncommitted one; and each goroutine runs one trial.
	// Waiting for exactly that many claims before picking keeps the
	// completion order under the adversary's control without
	// deadlocking against the window.
	goroutines := min(cellWorkers*workers, n*trials)
	ctrlDone := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		running := []stubPos{}
		released := make(map[stubPos]bool)
		cellReleased := func(c int) bool {
			for k := 0; k < trials; k++ {
				if !released[stubPos{c, k}] {
					return false
				}
			}
			return true
		}
		claimed, head := 0, 0
		for len(released) < n*trials {
			for head < n && cellReleased(head) {
				head++
			}
			want := min(len(released)+goroutines, min(n, head+cellWorkers)*trials)
			for ; claimed < want; claimed++ {
				p, ok := <-started
				if !ok {
					return
				}
				running = append(running, p)
			}
			choice := pick(append([]stubPos(nil), running...))
			idx := -1
			for i, p := range running {
				if p == choice {
					idx = i
					break
				}
			}
			if idx < 0 {
				panic("pick returned a trial that is not running")
			}
			running = append(running[:idx], running[idx+1:]...)
			close(release[choice])
			released[choice] = true
			if choice == fail {
				// Claims stop at a failure, so the model no longer holds:
				// release everything still running or claimed before the
				// stop, and let the loop deliver up to the failure.
				for _, p := range running {
					close(release[p])
				}
				for p := range started {
					close(release[p])
				}
				return
			}
		}
	}()

	var results []CellResult
	aggs, err := loop.run(context.Background(), func(r CellResult) { results = append(results, r) })
	// Every trial has returned, so nothing sends on started any more.
	close(started)
	<-ctrlDone

	phaseMu.Lock()
	phasesCopy := append([]CellPhase(nil), phases...)
	phaseMu.Unlock()
	if err == nil {
		for i, ph := range phasesCopy {
			if ph != CellDone {
				t.Fatalf("cell %d phase %q after success, want done", i, ph)
			}
		}
	}
	return results, aggs, phasesCopy, err
}

// noFail is a stub position no schedule reaches.
var noFail = stubPos{-1, -1}

// lastPos picks the running trial latest in (cell, trial) order.
func lastPos(running []stubPos) stubPos {
	last := running[0]
	for _, p := range running {
		if p.cell > last.cell || p.cell == last.cell && p.trial > last.trial {
			last = p
		}
	}
	return last
}

// checkOrdered asserts the committed stream is exactly the first count
// results of cells 0, 1, … of `trials` trials each, in (cell, trial)
// order.
func checkOrdered(t *testing.T, results []CellResult, count, trials int) {
	t.Helper()
	if len(results) != count {
		t.Fatalf("%d results, want %d", len(results), count)
	}
	for i, r := range results {
		cell, trial := i/trials, i%trials
		if r.Cell != cell || r.TrialResult != stubResult(cell, trial) {
			t.Fatalf("result %d = %+v, want cell %d trial %d", i, r, cell, trial)
		}
	}
}

// TestCellSchedulerReverseCompletion completes every window in reverse:
// the trial latest in (cell, trial) order always finishes first, so the
// head trial finishes last and every other result passes through the
// reorder buffer before it is delivered.
func TestCellSchedulerReverseCompletion(t *testing.T) {
	for _, shape := range []struct{ cellWorkers, workers int }{{2, 1}, {4, 1}, {8, 1}, {2, 3}} {
		const n, trials = 8, 5
		results, aggs, _, err := stubSchedule(t, n, trials, shape.cellWorkers, shape.workers, noFail, lastPos)
		if err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		checkOrdered(t, results, n*trials, trials)
		for i, agg := range aggs {
			if agg == nil || agg.Completed != trials || agg.Rounds.Min != float64(1000*i) {
				t.Fatalf("%+v: cell %d aggregate %+v", shape, i, agg)
			}
		}
	}
}

// TestCellSchedulerRandomCompletion completes trials in seeded random
// order across several seeds, window sizes and goroutine counts.
func TestCellSchedulerRandomCompletion(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cellWorkers, workers := 1+rng.Intn(6), 1+rng.Intn(3)
		const n, trials = 12, 3
		results, _, _, err := stubSchedule(t, n, trials, cellWorkers, workers, noFail, func(running []stubPos) stubPos {
			return running[rng.Intn(len(running))]
		})
		if err != nil {
			t.Fatalf("seed=%d cellWorkers=%d workers=%d: %v", seed, cellWorkers, workers, err)
		}
		checkOrdered(t, results, n*trials, trials)
	}
}

// TestCellSchedulerFailureCommitOrder: with reverse completion and the
// last trial of cell 2 failing, cells 0 and 1 commit their full streams
// first, cell 2's earlier trials precede its error (matching the
// sequential loop, which streams trials live until one fails), the
// returned error names cell 2, and nothing from any later cell leaks into
// the committed stream.
func TestCellSchedulerFailureCommitOrder(t *testing.T) {
	const n, trials, cellWorkers, failCell = 8, 4, 4, 2
	results, aggs, phases, err := stubSchedule(t, n, trials, cellWorkers, 1, stubPos{failCell, trials - 1}, lastPos)
	if err == nil {
		t.Fatal("failing trial did not fail the schedule")
	}
	if !strings.Contains(err.Error(), "cell 2 (stub): trial 3: stub trial 2/3 exploded") {
		t.Fatalf("error lost the failing cell's or trial's identity: %v", err)
	}
	if aggs != nil {
		t.Fatalf("aggregates returned despite failure: %v", aggs)
	}
	checkOrdered(t, results, failCell*trials+trials-1, trials)
	// The loop marks the failing cell itself; committed cells stay done,
	// and nothing reads running once run returned.
	if phases[failCell] != CellFailed {
		t.Fatalf("failing cell phase %q, want failed", phases[failCell])
	}
	for i := 0; i < failCell; i++ {
		if phases[i] != CellDone {
			t.Fatalf("committed cell %d phase %q, want done", i, phases[i])
		}
	}
}

// TestCellSchedulerWindowBound: the admission window never exceeds the
// cell-worker count — at most K cells are admitted but uncommitted, which
// is what bounds compiled campaigns and the reorder buffer — however many
// goroutines claim trials.
func TestCellSchedulerWindowBound(t *testing.T) {
	const n, trials, cellWorkers = 16, 2, 3
	var mu sync.Mutex
	admitted, committed, maxWindow := 0, 0, 0
	loop := &trialLoop{
		cells:   n,
		trials:  trials,
		window:  cellWorkers,
		workers: cellWorkers * 2,
		admit: func(cell int) error {
			mu.Lock()
			admitted++
			if w := admitted - committed; w > maxWindow {
				maxWindow = w
			}
			mu.Unlock()
			return nil
		},
		trial: func(_ *engine.Workspace, cell, k int) (TrialResult, error) {
			return stubResult(cell, k), nil
		},
		onPhase: func(cell int, ph CellPhase) {
			if ph == CellDone {
				mu.Lock()
				committed++
				mu.Unlock()
			}
		},
	}
	var results []CellResult
	if _, err := loop.run(context.Background(), func(r CellResult) { results = append(results, r) }); err != nil {
		t.Fatal(err)
	}
	checkOrdered(t, results, n*trials, trials)
	if maxWindow > cellWorkers {
		t.Fatalf("admission window reached %d with %d cell workers", maxWindow, cellWorkers)
	}
}

// TestCellSchedulerClaimsPastBlockedTrial pins the trial-granular claim:
// at 2 cell workers × 1 trial worker, while trial 0 of cell 0 blocks, the
// other goroutine finishes every other trial of cells 0 and 1 instead of
// idling behind it, and nothing of cell 2 is admitted or claimed: the
// window holds cells 0 and 1 until cell 0 commits.
func TestCellSchedulerClaimsPastBlockedTrial(t *testing.T) {
	const n, trials = 3, 3
	blocked := make(chan struct{})
	unblock := make(chan struct{})
	var mu sync.Mutex
	finished := map[stubPos]bool{}
	admitted := []int{}
	startedCells := map[int]bool{}
	stalls := &obs.Counter{}
	loop := &trialLoop{
		cells:   n,
		trials:  trials,
		window:  2,
		workers: 2,
		admit: func(cell int) error {
			mu.Lock()
			admitted = append(admitted, cell)
			mu.Unlock()
			return nil
		},
		trial: func(_ *engine.Workspace, cell, k int) (TrialResult, error) {
			mu.Lock()
			startedCells[cell] = true
			mu.Unlock()
			if cell == 0 && k == 0 {
				close(blocked)
				<-unblock
			}
			mu.Lock()
			finished[stubPos{cell, k}] = true
			mu.Unlock()
			return stubResult(cell, k), nil
		},
		stalls: stalls,
	}
	done := make(chan error, 1)
	var results []CellResult
	go func() {
		_, err := loop.run(context.Background(), func(r CellResult) { results = append(results, r) })
		done <- err
	}()
	<-blocked
	// Wait until the admitter waits at the full window and the free
	// goroutine has finished the five other trials of the open cells;
	// nothing but the blocked trial can release either.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		others := len(finished)
		mu.Unlock()
		if others == 2*trials-1 && stalls.Value() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("while trial 0/0 blocks: %d other trials finished, %d window stalls; want 5 and 1 (the free goroutine idled)", others, stalls.Value())
		}
	}
	mu.Lock()
	if finished[stubPos{0, 0}] || fmt.Sprint(admitted) != "[0 1]" || startedCells[2] {
		t.Errorf("while trial 0/0 blocks: finished %v, admitted %v, cell 2 claimed %v; want no 0/0, cells [0 1], no cell 2",
			finished, admitted, startedCells[2])
	}
	mu.Unlock()
	close(unblock)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkOrdered(t, results, n*trials, trials)
}

// TestCellSchedulerContextCancel: cancelling mid-schedule surfaces
// context.Canceled (possibly wrapped by a cell error) and never a
// partial success.
func TestCellSchedulerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	loop := &trialLoop{
		cells:   6,
		trials:  1,
		window:  2,
		workers: 2,
		trial: func(_ *engine.Workspace, cell, k int) (TrialResult, error) {
			if cell == 1 {
				cancel()
			}
			<-ctx.Done()
			return TrialResult{}, ctx.Err()
		},
		wrap: func(cell int, err error) error { return fmt.Errorf("cell %d: %w", cell, err) },
	}
	aggs, err := loop.run(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if aggs != nil {
		t.Fatalf("partial aggregates after cancel: %v", aggs)
	}
}
