package tensor

import (
	"runtime"
	"sync"
)

// ParallelFor runs its callers' independent per-index work on a reusable
// pool of worker goroutines. Work is partitioned into contiguous index
// blocks so that every element is written by exactly one goroutine:
// results are bitwise identical whatever the worker count, and seeded
// runs stay reproducible.

// Parallelism returns the number of goroutines ParallelFor splits work
// among: GOMAXPROCS. It also sets the replica count of internal/nn's
// data-parallel passes over a BackboneClassifier (nn.TrainEpoch,
// AccumulateImportance): each minibatch splits among
// min(Parallelism(), batch) replicas, bit-identical to one replica, so a
// seeded run's output does not depend on it.
func Parallelism() int { return runtime.GOMAXPROCS(0) }

type blockTask struct {
	fn         func(start, end int)
	start, end int
	wg         *sync.WaitGroup
}

var (
	poolOnce sync.Once
	taskCh   chan blockTask
)

// startPool launches the package-level workers, sized to GOMAXPROCS at
// first use. A later GOMAXPROCS changes how finely work is split, not the
// pool size, so lowering it never strands goroutines.
func startPool() {
	n := runtime.GOMAXPROCS(0)
	taskCh = make(chan blockTask, 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range taskCh {
				t.fn(t.start, t.end)
				t.wg.Done()
			}
		}()
	}
}

// ParallelFor splits [0, n) into up to Parallelism() contiguous blocks
// and runs fn over each on the package worker pool — the entry point for
// callers with independent per-index work (e.g. the aggregate.Combiner
// folding one upload into every output accumulator). The caller executes
// the first block itself; the rest go to the pool, falling back to inline
// execution when the queue is full so nested calls cannot deadlock. fn
// must only write state owned by its index range; partitioning is
// deterministic, so results are bitwise independent of the pool.
func ParallelFor(n int, fn func(start, end int)) {
	p := min(Parallelism(), n)
	if p <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	poolOnce.Do(startPool)
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for s := chunk; s < n; s += chunk {
		e := min(s+chunk, n)
		wg.Add(1)
		select {
		case taskCh <- blockTask{fn, s, e, &wg}:
		default:
			fn(s, e)
			wg.Done()
		}
	}
	fn(0, chunk)
	wg.Wait()
}
