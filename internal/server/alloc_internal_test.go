package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/wire"
)

// recorder is a ResponseWriter over one reused header map and body buffer,
// so that what a handler call allocates is the handler's own.
type recorder struct {
	h    http.Header
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(int)             {}
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// TestServedBatchRoundTripAllocationBudget: a served batch round trip of a
// scattered decode step — batch-swap-out of six runs of 4 KiB blocks, then
// their batch-swap-in, then the answer read into a caller-owned buffer —
// allocates no more than batchTripBudget bytes per iteration, the payload
// included: the answer streams from the pool's memory into the recorder and
// from there into dst. What is left is the request frames as the handler
// decodes them, the one coalesce per batch, the admission, the host blocks
// and the answer's name and run table; every per-request scratch buffer of
// the handler, the executor and the codec is sized to its content or reused.
// Before the prefix read was sized, the batch coalesced once and the codec,
// run and reply scratch reused, the same loop allocated about 12 KiB per
// iteration. sync.Pool drops puts under the race detector, so there the
// budget is not asserted.
func TestServedBatchRoundTripAllocationBudget(t *testing.T) {
	const (
		blockElems, numBlocks = 1024, 64
		iterations            = 200
		batchTripBudget       = 4 << 10 // 1.9–2.3 KiB measured at -cpu 1, 2 and 4
	)
	s, url := newInternalServer(t)
	c, ctx := client.New(url), context.Background()
	if err := c.RegisterPool(ctx, "kv", blockElems, numBlocks); err != nil {
		t.Fatal(err)
	}
	all := make([]int, numBlocks)
	img := make([]float32, numBlocks*blockElems)
	for i := range all {
		all[i] = i
	}
	for i := range img {
		if i%2 == 0 {
			img[i] = float32(i)
		}
	}
	if err := c.WriteBlocks(ctx, "kv", all, img); err != nil {
		t.Fatal(err)
	}
	ids := []int{40, 1, 2, 9, 10, 11, 17, 23, 24, 25, 26, 41, 60} // six runs, unsorted
	outBody, err := wire.Encode(&wire.Frame{Type: wire.TypeBatchSwapOut, Name: "kv", Compress: true, Alg: compress.ZVC, BlockIDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	inBody, err := wire.Encode(&wire.Frame{Type: wire.TypeBatchSwapIn, Name: "kv", BlockIDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	// The requests are built before the count starts: they are the caller's.
	outs, ins := make([]*http.Request, iterations+1), make([]*http.Request, iterations+1)
	for i := range outs {
		outs[i] = httptest.NewRequest(http.MethodPost, "/v1/batch-swap-out", bytes.NewReader(outBody))
		ins[i] = httptest.NewRequest(http.MethodPost, "/v1/batch-swap-in", bytes.NewReader(inBody))
	}
	rec := &recorder{h: http.Header{}}
	dst := make([]float32, len(ids)*blockElems)
	trip := func(i int) {
		s.Handler().ServeHTTP(rec, outs[i])
		rec.body.Reset()
		s.Handler().ServeHTTP(rec, ins[i])
		f, err := wire.ReadInto(&rec.body, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Runs) != 6 || &f.Data[0] != &dst[0] || f.Data[blockElems] != img[2*blockElems] {
			t.Fatalf("iteration %d answered %d runs, data in dst %v", i, len(f.Runs), &f.Data[0] == &dst[0])
		}
		rec.body.Reset()
	}
	trip(iterations) // warms the session's cells, the pools and the arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range iterations {
		trip(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / iterations
	t.Logf("served batch round trip: %d B per iteration", per)
	if !raceEnabled && per > batchTripBudget {
		t.Errorf("a served batch round trip allocated %d B per iteration, budget %d", per, batchTripBudget)
	}
}
