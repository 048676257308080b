// Package sweep schedules independent simulation cells across CPU cores.
//
// Every experiment cell in this repository is a self-contained deterministic
// discrete-event simulation: it builds its own sim.Engine, network, and RNGs
// seeded from Config.Seed, and shares no mutable state with any other cell.
// That makes the paper's evaluation grids (25 DDP models x workloads x
// sensitivity points) embarrassingly parallel: cells can run concurrently
// without perturbing each other's simulated outcomes, so results at
// workers=N are byte-identical to workers=1 — only wall-clock time changes.
//
// Run is the cluster-cell entry point the harness uses; Map is the generic
// scheduler underneath it, for experiment cells that are not plain
// cluster.Run invocations (crash/recovery runs, checker runs).
package sweep

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/cluster"
)

// Cell is one scheduled simulation.
type Cell struct {
	Config cluster.Config

	// Label, when non-empty, tags the cell's goroutine with a pprof label
	// ("cell" => Label) for the duration of the run, so CPU profiles of a
	// sweep attribute samples per cell (`go tool pprof -tagfocus`).
	Label string

	// OnDone, when non-nil, runs as the cell completes. The scheduler
	// serializes OnDone calls through a single mutex, so callbacks may
	// write progress lines to a shared io.Writer without interleaving.
	OnDone func(*cluster.Result)
}

// Arbitrate splits a core budget between cell-level and intra-cell (LP)
// parallelism so a sweep never oversubscribes the host:
// cellWorkers x lpWorkers <= procs.
//
// cellWorkers/lpWorkers follow the option convention: < 1 means "auto".
// Auto cell workers take min(procs, cells); auto LP workers take whatever
// budget remains per cell (procs / cellWorkers). When both are pinned and
// their product exceeds the budget, the explicit LP request wins — LP
// workers waiting at an epoch barrier waste more than idle cell slots — and
// cell workers shrink to fit. Results are always >= 1 each.
func Arbitrate(cells, cellWorkers, lpWorkers, procs int) (cw, lw int) {
	if procs < 1 {
		procs = 1
	}
	if cells < 1 {
		cells = 1
	}
	if cellWorkers < 1 {
		cellWorkers = procs
	}
	if cellWorkers > cells {
		cellWorkers = cells
	}
	if lpWorkers < 1 {
		lpWorkers = procs / cellWorkers
		if lpWorkers < 1 {
			lpWorkers = 1
		}
	}
	for cellWorkers > 1 && cellWorkers*lpWorkers > procs {
		cellWorkers--
	}
	return cellWorkers, lpWorkers
}

// Result pairs one cell's outcome with its submission slot: Run returns one
// Result per cell, in submission order, regardless of completion order.
type Result struct {
	Res *cluster.Result
	Err error
}

// Workers resolves a worker-count option: values < 1 mean "one worker per
// available core" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the cells over a bounded pool of worker goroutines
// (workers < 1 uses all cores) and returns one Result per cell in
// submission order. On the first error the scheduler stops starting new
// cells and drains the ones already in flight; cells that never started are
// left with both fields nil. FirstError extracts the propagated error.
func Run(cells []Cell, workers int) []Result {
	res := make([]Result, len(cells))
	var mu sync.Mutex // serializes OnDone across concurrent cells
	forEach(len(cells), workers, func(i int) error {
		var r *cluster.Result
		var err error
		if cells[i].Label != "" {
			pprof.Do(context.Background(), pprof.Labels("cell", cells[i].Label), func(context.Context) {
				r, err = cluster.Run(cells[i].Config)
			})
		} else {
			r, err = cluster.Run(cells[i].Config)
		}
		if err != nil {
			res[i].Err = err
			return err
		}
		res[i].Res = r
		if cells[i].OnDone != nil {
			mu.Lock()
			cells[i].OnDone(r)
			mu.Unlock()
		}
		return nil
	})
	return res
}

// FirstError returns the error of the earliest-submitted failed cell, or
// nil when every started cell succeeded.
func FirstError(res []Result) error {
	for i := range res {
		if res[i].Err != nil {
			return res[i].Err
		}
	}
	return nil
}

// Map fans fn over items with a bounded worker pool, preserving item order
// in the returned slice. On the first error no further items start, the
// in-flight ones drain cleanly, and the error of the earliest-submitted
// failed item is returned (later slots are zero values).
func Map[T, R any](items []T, workers int, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := forEach(len(items), workers, func(i int) error {
		r, err := fn(items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	return out, err
}

// errRecorded, when non-nil, runs after a worker has recorded its item's
// error, outside the lock. Tests set it to hold the other workers until the
// error is visible, so the no-new-submissions contract is checked on a
// schedule they control.
var errRecorded func()

// forEach runs fn(0..n-1) over up to workers goroutines, handing out
// indices in submission order. After any error, no new index is started;
// calls already in flight complete before forEach returns. When several
// in-flight calls fail, the error of the lowest index wins, so the
// propagated error does not depend on goroutine completion order.
func forEach(n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		next     int
		errIdx   int
		firstErr error
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if firstErr != nil || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()

			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil || i < errIdx {
					firstErr, errIdx = err, i
				}
				mu.Unlock()
				if errRecorded != nil {
					errRecorded()
				}
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}
