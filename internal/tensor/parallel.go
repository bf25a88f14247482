package tensor

import (
	"runtime"
	"sync"
)

// ParallelFor runs its callers' independent per-index work on goroutines
// it starts for the call and waits for: nothing outlives the call, so no
// goroutine of this package is left running between calls. Work is
// partitioned into contiguous index blocks so that every element is
// written by exactly one goroutine: results are bitwise identical
// whatever the worker count, and seeded runs stay reproducible.

// Parallelism returns the number of goroutines ParallelFor splits work
// among: GOMAXPROCS. It also sets the replica count of internal/nn's
// minibatch Pass over a BackboneClassifier (nn.TrainEpoch,
// AccumulateImportance, BatchGradients): each chunk of a minibatch
// splits among min(Parallelism(), batch) replicas, bit-identical to one
// replica, so a seeded run's output does not depend on it.
func Parallelism() int { return runtime.GOMAXPROCS(0) }

// ParallelFor splits [0, n) into up to Parallelism() contiguous blocks
// and runs fn over each — the entry point for callers with independent
// per-index work (e.g. the aggregate.Combiner folding one upload into
// every output accumulator). The caller executes the first block itself
// and starts one goroutine for each of the others, and ParallelFor
// returns once every block is done. fn must only write state owned by
// its index range; partitioning is deterministic, so results are bitwise
// independent of the scheduling.
func ParallelFor(n int, fn func(start, end int)) {
	p := min(Parallelism(), n)
	if p <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for s := chunk; s < n; s += chunk {
		wg.Add(1)
		go runBlock(fn, s, min(s+chunk, n), &wg)
	}
	fn(0, chunk)
	wg.Wait()
}

// runBlock runs one block of a ParallelFor call on its own goroutine.
func runBlock(fn func(start, end int), start, end int, wg *sync.WaitGroup) {
	defer wg.Done()
	fn(start, end)
}
