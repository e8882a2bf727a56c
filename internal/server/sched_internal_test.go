package server

// Tests for the SLO-aware admission path: deadline expiry while queued
// behind a held window, and critical traffic staying ahead of a
// saturating speculative stream (run with -race in `make race`).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/metrics"
	"cswap/internal/sched"
	"cswap/internal/tensor"
)

func schedCounter(t *testing.T, s *Server, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := s.Registry().Snapshot().Counter(name, labels...)
	return v
}

func TestDeadlineExpiryUnderQueueing(t *testing.T) {
	s, url := newInternalServer(t, WithMaxInFlight(1), WithSched(SchedConfig{Enabled: true}))
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()

	data := tensor.NewGenerator(1).Uniform(4096, 0.5).Data
	if err := c.Register(ctx, "t0", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "t0"); err != nil {
		t.Fatal(err)
	}

	// Occupy the only admission slot from under the server, so the next
	// request queues in its lane instead of running.
	if err := s.sched.Acquire(ctx, sched.LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, err := c.SwapIn(ctx, "t0", client.WithDeadline(30*time.Millisecond))
	if !errors.Is(err, client.ErrExpired) {
		t.Fatalf("queued swap-in past its deadline: %v, want ErrExpired", err)
	}
	if v := schedCounter(t, s, "server_sched_expiries_total", metrics.L("lane", "normal")); v != 1 {
		t.Fatalf("server_sched_expiries_total{lane=normal} = %v, want 1", v)
	}
	if v := schedCounter(t, s, "server_backpressure_total"); v != 1 {
		t.Fatalf("server_backpressure_total = %v, want 1 (expiry counts as backpressure)", v)
	}

	// Releasing the slot un-wedges the window; the same request succeeds.
	s.sched.Release()
	got, err := c.SwapIn(ctx, "t0", client.WithDeadline(5*time.Second))
	if err != nil {
		t.Fatalf("swap-in after release: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("restored %d elements, want %d", len(got), len(data))
	}
}

// TestNegativeLaneDepthIsDefault: the scheduler's never-queue depth is how
// the server spells Enabled false, not a value SchedConfig.LaneDepth can
// carry — a negative entry selects the default depth, as it always has, so
// a request behind a held window queues (and here expires) instead of
// being refused at once.
func TestNegativeLaneDepthIsDefault(t *testing.T) {
	s, url := newInternalServer(t, WithMaxInFlight(1),
		WithSched(SchedConfig{Enabled: true, LaneDepth: [sched.NumLanes]int{-1, -1, -1}}))
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()
	if err := c.Register(ctx, "t0", []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.sched.Acquire(ctx, sched.LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	defer s.sched.Release()
	if err := c.SwapOut(ctx, "t0", client.WithDeadline(30*time.Millisecond)); !errors.Is(err, client.ErrExpired) {
		t.Fatalf("swap-out behind a held window: %v, want ErrExpired (queued, not refused)", err)
	}
}

func TestCriticalAheadOfSpeculativeFlood(t *testing.T) {
	s, url := newInternalServer(t, WithMaxInFlight(2),
		WithSched(SchedConfig{Enabled: true, StarveAfter: 2 * time.Millisecond}))
	ctx := context.Background()

	// A pool of speculative tensors the flood prefetches (idempotent once
	// resident: each round trip still takes an admission slot, which is
	// exactly the contention the scheduler must referee), plus one tensor
	// the critical path swaps out and back per iteration.
	flood := client.New(url, client.WithRetry(64, time.Millisecond))
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("spec%d", i)
		if err := flood.Register(ctx, name, tensor.NewGenerator(int64(i)).Uniform(32*1024, 0.5).Data); err != nil {
			t.Fatal(err)
		}
		if err := flood.SwapOut(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	crit := client.New(url, client.WithRetry(64, time.Millisecond))
	if err := crit.Register(ctx, "hot", tensor.NewGenerator(99).Uniform(32*1024, 0.5).Data); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("spec%d", g)
			for !stop.Load() {
				// Saturated/busy refusals are the flood doing its job.
				_ = flood.Prefetch(ctx, name)
			}
		}(g)
	}

	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := crit.SwapOut(ctx, "hot"); err != nil {
			t.Fatalf("round %d: critical swap-out: %v", i, err)
		}
		if _, err := crit.SwapIn(ctx, "hot",
			client.WithLane(client.LaneCritical), client.WithDeadline(10*time.Second)); err != nil {
			t.Fatalf("round %d: critical swap-in: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if v := schedCounter(t, s, "server_sched_expiries_total", metrics.L("lane", "critical")); v != 0 {
		t.Fatalf("critical expiries = %v under speculative flood, want 0", v)
	}
	if v := schedCounter(t, s, "server_sched_admits_total", metrics.L("lane", "critical")); v < rounds {
		t.Fatalf("critical admits = %v, want >= %d", v, rounds)
	}
	if v := schedCounter(t, s, "server_sched_admits_total", metrics.L("lane", "speculative")); v == 0 {
		t.Fatal("speculative lane never admitted — the flood did not exercise the scheduler")
	}
}
