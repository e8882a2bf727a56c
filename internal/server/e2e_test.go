package server_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/server"
	"cswap/internal/tensor"
)

// TestE2EBitExactSparsityLadder is the end-to-end acceptance test: a
// ladder of tensors spanning the paper's sparsity range (§IV: activation
// sparsity varies 20–80% across layers), each driven through a full
// register → swap-out → swap-in cycle by its own goroutine over loopback
// HTTP, every restore compared bit-for-bit. Run under -race this also
// shakes the server's entry locks and admission window.
func TestE2EBitExactSparsityLadder(t *testing.T) {
	_, url := newTestServer(t,
		server.WithDeviceCapacity(256<<20),
		server.WithHostCapacity(256<<20),
		server.WithMaxInFlight(4))

	type rung struct {
		name     string
		sparsity float64
		alg      client.Algorithm
		elems    int
	}
	var rungs []rung
	algs := []client.Algorithm{client.ZVC, client.RLE, client.CSR, client.LZ4}
	for i, sp := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		for j, alg := range algs {
			rungs = append(rungs, rung{
				name:     fmt.Sprintf("ladder/s%02d-%s", int(sp*100), alg),
				sparsity: sp,
				alg:      alg,
				elems:    4096 + 1024*((i+j)%3), // vary sizes across the ladder
			})
		}
	}

	const rounds = 3
	var wg sync.WaitGroup
	for i, r := range rungs {
		wg.Add(1)
		go func(seed int64, r rung) {
			defer wg.Done()
			// High retry budget: rungs outnumber MaxInFlight on purpose, so
			// saturation refusals are part of what this test exercises.
			c := client.New(url, client.WithTenant("e2e"), client.WithRetry(50, 2*time.Millisecond))
			ctx := context.Background()
			tn := tensor.NewGenerator(seed).Uniform(r.elems, r.sparsity)
			want := append([]float32(nil), tn.Data...)
			if err := c.Register(ctx, r.name, tn.Data); err != nil {
				t.Errorf("%s: register: %v", r.name, err)
				return
			}
			for round := 0; round < rounds; round++ {
				// Odd rounds swap out raw, so that no swap-out finds a clean
				// copy of its request (executor.Handle.Seal): every one
				// encodes afresh and draws its buffer from the arena.
				opt := client.WithCodec(r.alg)
				if round%2 == 1 {
					opt = client.WithRaw()
				}
				if err := c.SwapOut(ctx, r.name, opt); err != nil {
					t.Errorf("%s round %d: swap-out: %v", r.name, round, err)
					return
				}
				got, err := c.SwapIn(ctx, r.name)
				if err != nil {
					t.Errorf("%s round %d: swap-in: %v", r.name, round, err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("%s round %d: %d elements back, want %d", r.name, round, len(got), len(want))
					return
				}
				for k := range want {
					if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
						t.Errorf("%s round %d: bit mismatch at [%d]: %08x != %08x",
							r.name, round, k, math.Float32bits(got[k]), math.Float32bits(want[k]))
						return
					}
				}
			}
			if err := c.Free(ctx, r.name); err != nil {
				t.Errorf("%s: free: %v", r.name, err)
			}
		}(int64(100+i), r)
	}
	wg.Wait()

	// The hot path reused pooled arenas: swap rounds after the first must
	// hit the executor's arena pool, and the evidence must be visible
	// through the same /metrics endpoint an operator would scrape.
	text, err := client.New(url).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hits := scrapeValue(t, text, `executor_arena_gets_total{outcome="hit"}`)
	if hits <= 0 {
		t.Errorf("executor_arena_gets_total{outcome=\"hit\"} = %v, want > 0 (arena reuse invisible over /metrics)", hits)
	}
	puts := scrapeValue(t, text, "executor_arena_puts_total")
	if puts <= 0 {
		t.Errorf("executor_arena_puts_total = %v, want > 0", puts)
	}
	wantSwaps := float64(len(rungs) * rounds)
	if outs := scrapeValue(t, text, "executor_swap_outs_total"); outs != wantSwaps {
		t.Errorf("executor_swap_outs_total = %v, want %v", outs, wantSwaps)
	}

	// Nothing left registered: the tenant's quota drained back to zero.
	if used := scrapeValue(t, text, `server_tenant_used_bytes{tenant="e2e"}`); used != 0 {
		t.Errorf("tenant used bytes after frees = %v, want 0", used)
	}
}

// scrapeValue pulls one sample out of Prometheus exposition text by its
// full series name (including labels).
func scrapeValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("series %s: bad sample %q: %v", series, rest, err)
		}
		return v
	}
	t.Fatalf("series %s not found in /metrics exposition", series)
	return 0
}
