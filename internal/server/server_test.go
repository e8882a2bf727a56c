package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/server"
	"cswap/internal/tensor"
	"cswap/internal/wire"
)

// newTestServer starts a loopback-HTTP service and returns it with its
// base URL. Defaults come first, so caller options override them; the
// millisecond RetryAfter truncates to a "Retry-After: 0" hint, so
// retrying clients in these tests spin on their own millisecond backoff
// instead of sleeping whole seconds.
func newTestServer(t *testing.T, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	defaults := []server.Option{
		server.WithDeviceCapacity(64 << 20),
		server.WithHostCapacity(64 << 20),
		server.WithRetryAfter(time.Millisecond),
		server.WithVerify(true),
	}
	s, err := server.NewServer(append(defaults, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = s.Close()
	})
	return s, hs.URL
}

func counterValue(t *testing.T, s *server.Server, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := s.Registry().Snapshot().Counter(name, labels...)
	return v
}

func TestRegisterSwapRoundTrip(t *testing.T) {
	s, url := newTestServer(t)
	c := client.New(url)
	ctx := context.Background()

	data := tensor.NewGenerator(1).Uniform(4096, 0.6).Data
	want := append([]float32(nil), data...)
	if err := c.Register(ctx, "t0", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "t0", client.WithCodec(client.ZVC)); err != nil {
		t.Fatal(err)
	}
	got, err := c.SwapIn(ctx, "t0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	st := s.Executor().Stats()
	if st.SwapOuts != 1 || st.SwapIns != 1 || st.CompressedTensors != 1 {
		t.Errorf("stats = %+v, want 1 swap-out/in, 1 compressed", st)
	}
	if err := c.Free(ctx, "t0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SwapIn(ctx, "t0"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("swap-in after free: %v, want ErrNotFound", err)
	}
}

func TestErrorMapping(t *testing.T) {
	_, url := newTestServer(t)
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()

	if err := c.SwapOut(ctx, "missing", client.WithCodec(client.ZVC)); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("swap-out of unknown tensor: %v, want ErrNotFound", err)
	}
	if err := c.Register(ctx, "dup", make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(ctx, "dup", make([]float32, 64)); !errors.Is(err, client.ErrExists) {
		t.Errorf("duplicate register: %v, want ErrExists", err)
	}
	// Swap-in of a resident tensor is a state conflict, not contention —
	// the client must not retry it.
	if _, err := c.SwapIn(ctx, "dup"); !errors.Is(err, client.ErrState) {
		t.Errorf("swap-in of resident tensor: %v, want ErrState", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
}

func TestTenantQuotaEnforcement(t *testing.T) {
	// Quota admits one 1024-element tensor (4 KiB) per tenant but not two.
	s, url := newTestServer(t, server.WithTenantQuota(6<<10))
	ctx := context.Background()
	a := client.New(url, client.WithTenant("a"))
	b := client.New(url, client.WithTenant("b"))

	if err := a.Register(ctx, "t0", make([]float32, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(ctx, "t1", make([]float32, 1024)); !errors.Is(err, client.ErrQuota) {
		t.Fatalf("register past quota: %v, want ErrQuota", err)
	}
	// Quotas are per tenant: b's budget is untouched by a's.
	if err := b.Register(ctx, "t0", make([]float32, 1024)); err != nil {
		t.Fatalf("tenant b blocked by tenant a's quota: %v", err)
	}
	if got := counterValue(t, s, "server_quota_rejections_total", metrics.L("tenant", "a")); got != 1 {
		t.Errorf("quota rejections for a = %v, want 1", got)
	}
	// Freeing returns quota: the refused register now fits.
	if err := a.Free(ctx, "t0"); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(ctx, "t1", make([]float32, 1024)); err != nil {
		t.Errorf("register after free: %v", err)
	}
	// The per-tenant gauges track registered bytes.
	snap := s.Registry().Snapshot()
	if v, _ := snap.Gauge("server_tenant_used_bytes", metrics.L("tenant", "a")); v != 4096 {
		t.Errorf("tenant a used bytes = %v, want 4096", v)
	}
}

// TestSaturationYields429 fills the admission window with artificially
// slow swaps and verifies the overflow answers 429 + Retry-After, counted
// on the backpressure series — bounded refusal instead of queueing.
func TestSaturationYields429(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Site: faultinject.SiteEncode, Mode: faultinject.Delay,
		Delay: 150 * time.Millisecond, Every: 1,
	})
	// One chunk per tensor so the injected delay fires once per swap-out,
	// not once per codec chunk.
	s, url := newTestServer(t, server.WithMaxInFlight(1), server.WithFaults(inj),
		server.WithLaunch(compress.Launch{Grid: 1, Block: 64}))
	ctx := context.Background()
	c := client.New(url) // registers don't need slots

	const n = 4
	for i := 0; i < n; i++ {
		if err := c.Register(ctx, fmt.Sprintf("t%d", i), tensor.NewGenerator(int64(i)).Uniform(4096, 0.5).Data); err != nil {
			t.Fatal(err)
		}
	}
	// Raw requests (no retries) so the 429s surface.
	frames := make([][]byte, n)
	for i := range frames {
		b, err := wire.Encode(&wire.Frame{Type: wire.TypeSwapOut, Name: fmt.Sprintf("t%d", i), Compress: true, Alg: compress.ZVC})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	var mu sync.Mutex
	statuses := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/swap-out", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
		}(frames[i])
	}
	wg.Wait()
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no swap-out succeeded: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("saturating MaxInFlight=1 produced no 429s: %v", statuses)
	}
	if got := counterValue(t, s, "server_backpressure_total"); got != float64(statuses[http.StatusTooManyRequests]) {
		t.Errorf("backpressure counter = %v, want %d", got, statuses[http.StatusTooManyRequests])
	}
	// A retrying client grinds through the same saturation without errors.
	rc := client.New(url, client.WithRetry(20, 10*time.Millisecond))
	var wg2 sync.WaitGroup
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if _, err := rc.SwapIn(context.Background(), name); err != nil && !errors.Is(err, client.ErrState) {
				t.Errorf("retrying swap-in %s: %v", name, err)
			}
		}()
	}
	wg2.Wait()
}

// TestBusyContention drives two concurrent op streams at one tensor: the
// loser of each race sees 409/busy, the retrying client absorbs it, and
// the tensor survives with its data intact.
func TestBusyContention(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Site: faultinject.SiteEncode, Mode: faultinject.Delay,
		Delay: 80 * time.Millisecond, Every: 1,
	})
	s, url := newTestServer(t, server.WithFaults(inj),
		server.WithLaunch(compress.Launch{Grid: 1, Block: 64}))
	ctx := context.Background()
	c := client.New(url, client.WithRetry(0, 0))

	if err := c.Register(ctx, "contended", tensor.NewGenerator(7).Uniform(4096, 0.5).Data); err != nil {
		t.Fatal(err)
	}
	// First swap-out stalls in the encode; the second finds the entry
	// locked and must answer busy, not queue.
	errc := make(chan error, 1)
	go func() { errc <- c.SwapOut(ctx, "contended", client.WithCodec(client.ZVC)) }()
	time.Sleep(20 * time.Millisecond)
	err2 := c.SwapOut(ctx, "contended", client.WithCodec(client.ZVC))
	if err := <-errc; err != nil {
		t.Fatalf("first swap-out: %v", err)
	}
	if !errors.Is(err2, client.ErrBusy) && !errors.Is(err2, client.ErrState) {
		t.Fatalf("racing swap-out: %v, want ErrBusy (or ErrState if it lost the race late)", err2)
	}
	if errors.Is(err2, client.ErrBusy) {
		if got := counterValue(t, s, "server_busy_total"); got == 0 {
			t.Error("server_busy_total = 0 after a busy refusal")
		}
	}
}

// TestFaultDegradationKeepsSessionAlive proves the service degrades —
// raw-swap fallback on encode failure, decode retry on transfer
// corruption — without dropping the tenant's session or its data.
func TestFaultDegradationKeepsSessionAlive(t *testing.T) {
	inj := faultinject.New(
		// Every encode fails: every compressed swap-out must fall back raw.
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Fail, Every: 1},
		// The first transfer-in corrupts the in-flight copy: the decode
		// retries from the retained blob.
		faultinject.Fault{Site: faultinject.SiteTransferIn, Mode: faultinject.Corrupt},
	)
	s, url := newTestServer(t, server.WithFaults(inj))
	ctx := context.Background()
	c := client.New(url)

	data := tensor.NewGenerator(3).Uniform(4096, 0.5).Data
	want := append([]float32(nil), data...)
	if err := c.Register(ctx, "hardy", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "hardy", client.WithCodec(client.ZVC)); err != nil {
		t.Fatalf("swap-out under injected encode failure: %v (should fall back raw)", err)
	}
	got, err := c.SwapIn(ctx, "hardy")
	if err != nil {
		t.Fatalf("swap-in under injected transfer corruption: %v (should retry)", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degraded path corrupted data at [%d]: %v != %v", i, got[i], want[i])
		}
	}
	st := s.Executor().Stats()
	if st.EncodeFallbacks == 0 {
		t.Error("no encode fallback counted; the degradation path did not run")
	}
	if st.DecodeRecoveries == 0 {
		t.Error("no decode recovery counted; the retry path did not run")
	}
	// The session is alive and consistent: the tensor swaps again cleanly.
	if err := c.SwapOut(ctx, "hardy", client.WithRaw()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SwapIn(ctx, "hardy"); err != nil {
		t.Fatal(err)
	}
}

// TestDrainAndShutdownOrdering verifies the shutdown contract: draining
// stops intake with 503s, in-flight work completes, and Close returns with
// every admission slot released.
func TestDrainAndShutdownOrdering(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Site: faultinject.SiteEncode, Mode: faultinject.Delay,
		Delay: 150 * time.Millisecond, Every: 1,
	})
	s, url := newTestServer(t, server.WithFaults(inj),
		server.WithLaunch(compress.Launch{Grid: 1, Block: 64}))
	ctx := context.Background()
	c := client.New(url, client.WithRetry(0, 0))

	if err := c.Register(ctx, "slow", tensor.NewGenerator(9).Uniform(4096, 0.5).Data); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.SwapOut(ctx, "slow", client.WithCodec(client.ZVC)) }()
	time.Sleep(30 * time.Millisecond) // the swap is now mid-encode

	s.Drain()
	if err := c.Health(ctx); !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("healthz while draining: %v, want ErrUnavailable", err)
	}
	if err := c.Register(ctx, "late", make([]float32, 64)); !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("register while draining: %v, want ErrUnavailable", err)
	}
	// The in-flight swap-out, admitted before the drain, completes.
	if err := <-done; err != nil {
		t.Fatalf("in-flight swap-out during drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.SchedHeld(); n != 0 {
		t.Errorf("admission slots held after Close = %d, want 0", n)
	}
	st := s.Executor().Stats()
	if st.SwapOuts != 1 {
		t.Errorf("swap-outs = %d, want 1 (the drained ticket committed)", st.SwapOuts)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, url := newTestServer(t)
	c := client.New(url)
	ctx := context.Background()
	if err := c.Register(ctx, "m", make([]float32, 256)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("metrics content type %q, want text/plain; version=0.0.4", got)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`server_requests_total{op="register",tenant="default"}`,
		"server_sessions",
		`server_tenant_used_bytes{tenant="default"}`,
		"# TYPE server_request_seconds histogram",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics exposition lacks %q", series)
		}
	}
}

func TestMalformedFramesRejected(t *testing.T) {
	_, url := newTestServer(t, server.WithMaxPayload(1<<16))
	// Truncated, corrupt, oversized, and wrong-type frames all answer 400.
	ok, err := wire.Encode(&wire.Frame{Type: wire.TypeFree, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	big, err := wire.Encode(&wire.Frame{Type: wire.TypeRegister, Name: "big", Data: make([]float32, 1<<15)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"truncated", ok[:len(ok)-2]},
		{"garbage", []byte("not a frame at all")},
		{"oversized", big},
		{"wrong type", ok}, // a free frame at the register endpoint
	}
	for _, tc := range cases {
		resp, err := http.Post(url+"/v1/register", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestRefusedFramesCreateNoTenantSeries: 200 requests with garbage bodies,
// each under its own tenant name and spread over the operations, add at
// most one server_requests_total series per operation, and leave the
// series of a tenant that sent well-formed frames as they were.
func TestRefusedFramesCreateNoTenantSeries(t *testing.T) {
	_, url := newTestServer(t)
	c, ctx := client.New(url), context.Background()
	if err := c.Register(ctx, "m", make([]float32, 256)); err != nil {
		t.Fatal(err)
	}
	requestSeries := func() map[string]string {
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		series := map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "server_requests_total{") {
				series[name] = value
			}
		}
		return series
	}
	before := requestSeries()
	ops := []string{"register", "swap-out", "swap-in", "free"}
	for i := 0; i < 200; i++ {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/"+ops[i%len(ops)], strings.NewReader("not a frame at all"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.TenantHeader, fmt.Sprintf("stranger-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage frame %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	after := requestSeries()
	if added := len(after) - len(before); added > len(ops) {
		t.Fatalf("200 refused frames added %d server_requests_total series, want at most %d", added, len(ops))
	}
	for name, value := range before {
		if after[name] != value {
			t.Fatalf("%s: %s before the refused frames, %s after", name, value, after[name])
		}
	}
}
