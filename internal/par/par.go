// Package par provides the tiny deterministic fork-join helper the
// analysis packages use to shard per-procedure work (PDG construction,
// mod/ref summary batches) across a bounded worker pool. Work items are
// identified by index, so callers write results into per-index slots and
// merge deterministically afterwards; the helper never reorders or drops
// items, and a worker count of one runs everything inline on the calling
// goroutine (no scheduling, byte-identical to a plain loop).
package par

import (
	"runtime"
	"sync"
)

// Workers normalizes a requested worker-pool size: values <= 0 mean
// GOMAXPROCS, mirroring engine.BatchOptions.Workers.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForWeighted runs f(i) for every i in [0, n) like For, but instead of
// handing indexes to workers one at a time it statically partitions them
// into at most `workers` contiguous chunks of near-equal total weight
// (weight(i) is the caller's cost estimate for item i, e.g. a procedure's
// statement count) and runs each chunk on one goroutine. This keeps the
// parallel split coarse: a level of many tiny work items costs a handful
// of goroutine handoffs instead of one mutex round-trip per item, which
// is what lets fine-grained fixpoint schedules actually win on real
// cores. The partition depends only on (workers, n, weights), never on
// scheduling, so callers with order-independent work items (unique
// fixpoints, per-index output slots) stay deterministic at every worker
// count. workers <= 1 (or n <= 1) runs everything inline on the caller's
// goroutine.
func ForWeighted(workers, n int, weight func(i int) int, f func(i int)) {
	ForChunks(workers, n, weight, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForChunks is ForWeighted handing each chunk [lo, hi) to one call of f,
// so a caller can keep per-chunk scratch across the items of a chunk.
func ForChunks(workers, n int, weight func(i int) int, f func(lo, hi int)) {
	if n == 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		f(0, n)
		return
	}
	totalW := 0
	for i := 0; i < n; i++ {
		totalW += weight(i)
	}
	// Greedy cut: each chunk closes once it reaches its fair share of the
	// remaining weight, so trailing chunks stay balanced even when early
	// items are heavy.
	type span struct{ start, end int }
	chunks := make([]span, 0, workers)
	start, acc, remaining := 0, 0, totalW
	for i := 0; i < n; i++ {
		acc += weight(i)
		chunksLeft := workers - len(chunks)
		if chunksLeft > 1 && acc*chunksLeft >= remaining && n-(i+1) >= chunksLeft-1 {
			chunks = append(chunks, span{start, i + 1})
			start = i + 1
			remaining -= acc
			acc = 0
		}
	}
	chunks = append(chunks, span{start, n})
	if len(chunks) <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c span) {
			defer wg.Done()
			f(c.start, c.end)
		}(c)
	}
	wg.Wait()
}

// For runs f(i) for every i in [0, n), fanning the indexes out across at
// most workers goroutines (after Workers normalization, and never more
// than n). It returns when every call has completed. f must not panic;
// workers == 1 (or n <= 1) runs inline on the caller's goroutine.
func For(workers, n int, f func(i int)) {
	if n == 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
