package sched

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cswap/internal/metrics"
)

func newTest(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitDepth spins until lane's queue reaches n (waiters enqueue from
// goroutines; the tests need to observe the queue before releasing).
func waitDepth(t *testing.T, s *Scheduler, lane Lane, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Depth(lane) != n {
		if time.Now().After(deadline) {
			t.Fatalf("lane %s never reached depth %d (at %d)", lane, n, s.Depth(lane))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestLaneSpelling(t *testing.T) {
	want := map[Lane]string{LaneCritical: "critical", LaneNormal: "normal", LaneSpeculative: "speculative"}
	for l, s := range want {
		if l.String() != s || !l.Valid() {
			t.Errorf("lane %d: String=%q Valid=%v", uint8(l), l.String(), l.Valid())
		}
	}
	if Lane(7).Valid() {
		t.Error("lane 7 should be invalid")
	}
}

func TestNewRejectsZeroSlots(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for zero slots")
	}
}

func TestFastPathAndRelease(t *testing.T) {
	s := newTest(t, Config{Slots: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := s.Acquire(cctx, LaneNormal, time.Time{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire: want DeadlineExceeded, got %v", err)
	}
	s.Release()
	if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := newTest(t, Config{Slots: 1})
	ctx := context.Background()
	if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	order := make(chan Lane, 3)
	var wg sync.WaitGroup
	start := func(l Lane) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Acquire(ctx, l, time.Time{}); err != nil {
				t.Errorf("lane %s: %v", l, err)
				return
			}
			order <- l
			s.Release()
		}()
		waitDepth(t, s, l, 1)
	}
	// Enqueue lowest priority first so the grant order can only come
	// from lane priority, not arrival order.
	start(LaneSpeculative)
	start(LaneNormal)
	start(LaneCritical)
	s.Release()
	wg.Wait()
	close(order)
	var got []Lane
	for l := range order {
		got = append(got, l)
	}
	want := []Lane{LaneCritical, LaneNormal, LaneSpeculative}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

func TestEDFWithinLane(t *testing.T) {
	s := newTest(t, Config{Slots: 1})
	ctx := context.Background()
	if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	type tagged struct {
		tag      string
		deadline time.Time
	}
	far := time.Now().Add(time.Hour)
	near := time.Now().Add(time.Minute)
	order := make(chan string, 3)
	var wg sync.WaitGroup
	for i, c := range []tagged{{"far", far}, {"near", near}, {"none", time.Time{}}} {
		wg.Add(1)
		go func(c tagged) {
			defer wg.Done()
			if err := s.Acquire(ctx, LaneNormal, c.deadline); err != nil {
				t.Errorf("%s: %v", c.tag, err)
				return
			}
			order <- c.tag
			s.Release()
		}(c)
		waitDepth(t, s, LaneNormal, i+1)
	}
	s.Release()
	wg.Wait()
	close(order)
	var got []string
	for tag := range order {
		got = append(got, tag)
	}
	want := []string{"near", "far", "none"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF order %v, want %v", got, want)
		}
	}
}

func TestExpiry(t *testing.T) {
	r := metrics.NewRegistry()
	s := newTest(t, Config{Slots: 1, Metrics: r, Prefix: "test"})
	ctx := context.Background()
	if err := s.Acquire(ctx, LaneCritical, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Already expired on arrival: refuse without queueing.
	if err := s.Acquire(ctx, LaneCritical, time.Now().Add(-time.Second)); !errors.Is(err, ErrExpired) {
		t.Fatalf("pre-expired: want ErrExpired, got %v", err)
	}
	// Expires while queued.
	startT := time.Now()
	err := s.Acquire(ctx, LaneCritical, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("queued: want ErrExpired, got %v", err)
	}
	if waited := time.Since(startT); waited < 20*time.Millisecond {
		t.Fatalf("expired after only %v; should have waited the deadline out", waited)
	}
	if s.Depth(LaneCritical) != 0 {
		t.Fatalf("expired waiter left in queue (depth %d)", s.Depth(LaneCritical))
	}
	if v, ok := r.Snapshot().Counter("test_sched_expiries_total", metrics.L("lane", "critical")); !ok || v != 2 {
		t.Fatalf("expiries counter = %v (ok=%v), want 2", v, ok)
	}
	// The slot was not leaked: release frees it for a fresh acquire.
	s.Release()
	if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
		t.Fatalf("after expiries: %v", err)
	}
}

func TestLaneFull(t *testing.T) {
	var depths [NumLanes]int
	depths[LaneNormal] = 2
	s := newTest(t, Config{Slots: 1, LaneDepth: depths})
	ctx := context.Background()
	if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go s.Acquire(ctx, LaneNormal, time.Time{}) //nolint:errcheck
		waitDepth(t, s, LaneNormal, i+1)
	}
	if err := s.Acquire(ctx, LaneNormal, time.Time{}); !errors.Is(err, ErrLaneFull) {
		t.Fatalf("want ErrLaneFull, got %v", err)
	}
	// Other lanes have their own depth budget.
	go s.Acquire(ctx, LaneCritical, time.Time{}) //nolint:errcheck
	waitDepth(t, s, LaneCritical, 1)
	s.Release()
	s.Release()
	s.Release()
	s.Release()
}

func TestContextCancelRequeues(t *testing.T) {
	s := newTest(t, Config{Slots: 1})
	if err := s.Acquire(context.Background(), LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Acquire(cctx, LaneNormal, time.Time{}) }()
	waitDepth(t, s, LaneNormal, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if s.Depth(LaneNormal) != 0 {
		t.Fatalf("canceled waiter left queued")
	}
	s.Release()
	if err := s.Acquire(context.Background(), LaneNormal, time.Time{}); err != nil {
		t.Fatalf("slot leaked by cancel: %v", err)
	}
}

func TestCloseFailsWaiters(t *testing.T) {
	s := newTest(t, Config{Slots: 1})
	if err := s.Acquire(context.Background(), LaneNormal, time.Time{}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Acquire(context.Background(), LaneSpeculative, time.Time{}) }()
	waitDepth(t, s, LaneSpeculative, 1)
	s.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued waiter: want ErrClosed, got %v", err)
	}
	if err := s.Acquire(context.Background(), LaneNormal, time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close acquire: want ErrClosed, got %v", err)
	}
}

// TestDrainWaitsForLastRelease: Close fails the queued waiters at once and
// does not wait for the admitted slots; Drain returns only after the last
// of them is released.
func TestDrainWaitsForLastRelease(t *testing.T) {
	s := newTest(t, Config{Slots: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := s.Acquire(ctx, LaneNormal, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 2)
	go func() { errc <- s.Acquire(ctx, LaneCritical, time.Time{}) }()
	go func() { errc <- s.Acquire(ctx, LaneSpeculative, time.Time{}) }()
	waitDepth(t, s, LaneCritical, 1)
	waitDepth(t, s, LaneSpeculative, 1)
	s.Close() // must not block on the two held slots
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued waiter at Close: %v, want ErrClosed", err)
		}
	}
	if n := s.Held(); n != 2 {
		t.Fatalf("Held after Close = %d, want 2", n)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for i := 2; i > 0; i-- {
		select {
		case <-drained:
			t.Fatalf("Drain returned with %d slots held", i)
		case <-time.After(20 * time.Millisecond):
		}
		s.Release()
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last Release")
	}
	if n := s.Held(); n != 0 {
		t.Fatalf("Held after Drain = %d, want 0", n)
	}
}

func TestShouldShed(t *testing.T) {
	s := newTest(t, Config{Slots: 1, StarveAfter: 5 * time.Millisecond})
	ctx := context.Background()
	if err := s.Acquire(ctx, LaneSpeculative, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if s.ShouldShed(LaneSpeculative) {
		t.Fatal("shed with empty critical lane")
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Acquire(ctx, LaneCritical, time.Time{}) }()
	waitDepth(t, s, LaneCritical, 1)
	time.Sleep(15 * time.Millisecond)
	if !s.ShouldShed(LaneSpeculative) {
		t.Fatal("no shed signal with critical waiter starved past threshold")
	}
	if s.ShouldShed(LaneCritical) || s.ShouldShed(LaneNormal) {
		t.Fatal("only speculative work sheds")
	}
	s.Release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if s.ShouldShed(LaneSpeculative) {
		t.Fatal("shed signal stuck after critical waiter was granted")
	}
	s.Release()
}

// TestStarvationUnderSpeculativeLoad is the scheduler-level starvation
// test: a saturating stream of speculative acquisitions must not starve
// concurrent critical requests — every critical acquire admits before its
// deadline (zero expiries) and the critical queue wait stays bounded.
// Run under -race via `make race`.
func TestStarvationUnderSpeculativeLoad(t *testing.T) {
	s := newTest(t, Config{Slots: 4, StarveAfter: time.Millisecond})
	ctx := context.Background()
	stop := make(chan struct{})
	var specOps atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Acquire(ctx, LaneSpeculative, time.Time{}); err != nil {
					if !errors.Is(err, ErrLaneFull) {
						t.Errorf("speculative acquire: %v", err)
					}
					continue
				}
				specOps.Add(1)
				time.Sleep(200 * time.Microsecond) // hold the slot: "in-flight prefetch"
				s.Release()
			}
		}()
	}

	const criticals = 64
	waits := make([]time.Duration, criticals)
	var expiries atomic.Int64
	var cwg sync.WaitGroup
	for i := 0; i < criticals; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			startT := time.Now()
			err := s.Acquire(ctx, LaneCritical, startT.Add(2*time.Second))
			if err != nil {
				expiries.Add(1)
				t.Errorf("critical %d: %v", i, err)
				return
			}
			waits[i] = time.Since(startT)
			time.Sleep(100 * time.Microsecond)
			s.Release()
		}(i)
		time.Sleep(500 * time.Microsecond)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	if n := expiries.Load(); n != 0 {
		t.Fatalf("%d critical expiries under speculative load, want 0", n)
	}
	if specOps.Load() == 0 {
		t.Fatal("speculative stream never ran; the test exercised nothing")
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	p99 := waits[criticals*99/100]
	if p99 > time.Second {
		t.Fatalf("critical p99 queue wait %v; starvation bound blown", p99)
	}
}
