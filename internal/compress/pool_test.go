package compress

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGoRunsEverySubmission pins the executor-facing pool contract: Go
// submissions are never shed — every fn runs exactly once, even when far
// more work is submitted than there are workers, and even while the same
// pool is serving chunk-level parallel codec calls.
func TestGoRunsEverySubmission(t *testing.T) {
	const jobs = 200
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		i := i
		Go(func() {
			defer wg.Done()
			ran.Add(1)
			if i%4 == 0 {
				// A Go task may itself fan chunk work out through
				// runWorkers (the async executor does exactly this);
				// runWorkers waits on jobs completed and its caller claims
				// every job no helper has, so this cannot deadlock even
				// with every worker parked in such a task.
				data := make([]float32, 4096)
				if _, err := ParallelEncode(ZVC, data, Launch{Grid: 4, Block: 64}); err != nil {
					t.Error(err)
				}
			}
		})
	}
	wg.Wait()
	if got := ran.Load(); got != jobs {
		t.Fatalf("ran %d of %d submissions", got, jobs)
	}
}
