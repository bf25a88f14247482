package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package runs its large kernels on a reusable pool of worker
// goroutines. Work is always partitioned by output row-blocks so that
// every output element is written by exactly one goroutine and every
// per-element reduction runs in the same (ascending-k) order as the
// serial kernel: results are bitwise identical regardless of the
// parallelism setting, and seeded runs stay reproducible.

// parallelism holds the configured worker count; 0 means GOMAXPROCS.
var parallelism atomic.Int64

// Parallelism returns the number of goroutines large kernels may use.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the number of goroutines large kernels may use.
// n ≤ 0 restores the default (GOMAXPROCS). Safe to call concurrently
// with running kernels; in-flight calls keep their partitioning.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// minParallelFlops is the kernel cost (multiply-adds) below which
// dispatching to the pool costs more than it saves and the serial
// kernel runs instead. Measured with BenchmarkMatMul on a 2-thread
// amd64 box after the register-blocked kernels landed (serial vs
// pooled, µs per product): 64³ 75 vs 105, 96³ 265 vs 250, 128³ 585 vs
// 410. Waking a worker and being woken by it costs about 30 µs whatever
// the size, so the pool starts to pay where the serial kernel takes a
// few hundred µs: 96³.
const minParallelFlops = 96 * 96 * 96

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
// first use. The Parallelism knob controls how finely work is split,
// not the pool size, so lowering it never strands goroutines.
func startPool() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
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
// and runs fn over each on the package worker pool — the exported
// entry point for callers with independent per-index work (e.g. the
// aggregate.Combiner folding one upload into every output accumulator).
// fn must only write state owned by its index range; partitioning is
// deterministic, so results are bitwise independent of the pool.
func ParallelFor(n int, fn func(start, end int)) { parallelFor(n, fn) }

// parallelFor splits [0, n) into up to Parallelism() contiguous blocks
// and runs fn over each. The caller executes the first block itself;
// the rest go to the worker pool, falling back to inline execution when
// the queue is full so nested calls cannot deadlock. fn must only write
// state owned by its row range.
func parallelFor(n int, fn func(start, end int)) {
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 || n <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	poolOnce.Do(startPool)
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for s := chunk; s < n; s += chunk {
		e := s + chunk
		if e > n {
			e = n
		}
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
