package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/wire"
)

// newInternalServer builds a Server directly (internal tests need entry
// and session access the exported surface hides).
func newInternalServer(t *testing.T, opts ...Option) (*Server, string) {
	t.Helper()
	s, err := NewServer(append([]Option{
		WithDeviceCapacity(64 << 20), WithHostCapacity(64 << 20),
		WithVerify(true), WithRetryAfter(time.Millisecond),
	}, opts...)...)
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

// entrySparsity reads an entry's pool-wide sparsity under its lock.
func entrySparsity(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	ent, err := s.session(DefaultTenant).lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	return ent.sparsity
}

// TestBatchWriteBlendsSparsityByCoverage pins the satellite fix: a
// partial batch-write must fold its measured sparsity into the pool-wide
// value weighted by the fraction of blocks it covers, not overwrite it —
// a dense write to a sparse pool's corner moves the profile
// proportionally, it does not swing every later codec decision to the
// corner's density.
func TestBatchWriteBlendsSparsityByCoverage(t *testing.T) {
	const (
		blockElems = 64
		numBlocks  = 16
	)
	s, url := newInternalServer(t)
	c := client.New(url)
	ctx := context.Background()
	if err := c.RegisterPool(ctx, "kv", blockElems, numBlocks); err != nil {
		t.Fatal(err)
	}

	// Fill the whole pool 90% sparse.
	allIDs := make([]int, numBlocks)
	sparse := make([]float32, numBlocks*blockElems)
	for i := range allIDs {
		allIDs[i] = i
	}
	for i := range sparse {
		if i%10 == 0 {
			sparse[i] = float32(i + 1)
		}
	}
	if err := c.WriteBlocks(ctx, "kv", allIDs, sparse); err != nil {
		t.Fatal(err)
	}
	base := entrySparsity(t, s, "kv")
	if base < 0.8 {
		t.Fatalf("pool sparsity after sparse fill = %v, want ~0.9", base)
	}

	// Write a fully dense corner: 2 of 16 blocks.
	dense := make([]float32, 2*blockElems)
	for i := range dense {
		dense[i] = float32(i + 1)
	}
	if err := c.WriteBlocks(ctx, "kv", []int{0, 1}, dense); err != nil {
		t.Fatal(err)
	}
	got := entrySparsity(t, s, "kv")
	want := base * (1 - 2.0/numBlocks) // blended with sparsity 0 at 2/16 weight
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("pool sparsity after dense corner write = %v, want blended %v", got, want)
	}
	if got < 0.5 {
		t.Fatalf("dense corner write clobbered the pool profile: sparsity %v", got)
	}
}

// TestFreePoolBusyTaxonomy pins the satellite fix: freeing a pool while a
// batch swap is in flight answers the busy taxonomy — 409, the busy error
// code, and a Retry-After hint — and a retry after the batch resolves
// frees cleanly, returning the full quota charge (no leak).
func TestFreePoolBusyTaxonomy(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 500 * time.Millisecond,
	})
	s, url := newInternalServer(t, WithFaults(inj))
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()
	if err := c.RegisterPool(ctx, "kv", 64, 8); err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	data := make([]float32, 4*64)
	for i := range data {
		if i%2 == 0 {
			data[i] = float32(i)
		}
	}
	if err := c.WriteBlocks(ctx, "kv", ids, data); err != nil {
		t.Fatal(err)
	}
	ent, err := s.session(DefaultTenant).lookup("kv")
	if err != nil {
		t.Fatal(err)
	}
	// Submit the batch on the executor directly: the entry lock stays
	// free, so the free request reaches pool.Free() while the run's blocks
	// are genuinely mid-swap (the delayed encode holds them SwappingOut).
	tk := ent.obj.p.SwapOutBlocksCtx(context.Background(), ids, true, compress.ZVC)

	body, err := wire.Encode(&wire.Frame{Type: wire.TypeFree, Name: "kv"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/free", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("free of busy pool = %d, want 409", resp.StatusCode)
	}
	if code := resp.Header.Get(ErrorHeader); code != CodeBusy {
		t.Fatalf("free of busy pool error code = %q, want %q", code, CodeBusy)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("busy free refusal carries no Retry-After hint")
	}
	if used := s.session(DefaultTenant).held(); used == 0 {
		t.Fatal("refused free released the quota charge while the pool still lives")
	}

	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(ctx, "kv"); err != nil {
		t.Fatalf("free after batch resolved: %v", err)
	}
	if used := s.session(DefaultTenant).held(); used != 0 {
		t.Fatalf("quota still charged %d bytes after successful free", used)
	}
}

// TestSwapPricedAfterCoalescing: a batch swap-out of one block named four
// times moves one block, so the tuner's tenant profile is fed one block's
// bytes — the request's blocks after coalescing, as the batch series count
// them — not four.
func TestSwapPricedAfterCoalescing(t *testing.T) {
	const blockElems = 64
	s, url := newInternalServer(t)
	c := client.New(url)
	ctx := context.Background()
	if err := c.RegisterPool(ctx, "kv", blockElems, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOutBlocks(ctx, "kv", []int{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	prof, _, _ := s.session(DefaultTenant).tunerState()
	if want := float64(blockElems * 4); prof.swaps != 1 || prof.ewmaBytes != want {
		t.Fatalf("profile after one swap-out of block 3 x4: %d swaps, %v bytes, want 1 swap of %v bytes",
			prof.swaps, prof.ewmaBytes, want)
	}
}
