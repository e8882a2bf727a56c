package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"cswap/internal/wire"
)

// TestEarlyRefusalLeavesCallersSlice: Register streams its request from the
// caller's slice. A daemon that refuses before reading the body (507 here)
// ends the call while the transport may still be copying that body out; the
// caller has its slice back when Register returns, so nothing may read it
// afterwards. The writes below race any such read under -race.
func TestEarlyRefusalLeavesCallersSlice(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-CSwap-Error", "quota")
		http.Error(w, "tenant quota exceeded", http.StatusInsufficientStorage)
	}))
	defer hs.Close()
	c := New(hs.URL)
	data := make([]float32, 4<<20) // 16 MiB: more than the socket takes before the refusal lands
	for round := 0; round < 4; round++ {
		if err := c.Register(context.Background(), "big", data); !errors.Is(err, ErrQuota) {
			t.Fatalf("Register against a refusing daemon: %v, want ErrQuota", err)
		}
		for i := range data {
			data[i] = float32(round)
		}
	}
}

// TestSwapInIntoLandsInDst: the restored tensor is read off the response
// into the caller's buffer, a retried refusal included, and a buffer of the
// wrong size is an error rather than a silent resize.
func TestSwapInIntoLandsInDst(t *testing.T) {
	want := []float32{1, 0, -2.5, 0, 7}
	resp, err := wire.Encode(&wire.Frame{Type: wire.TypeTensorData, Name: "t", Data: want})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls++; calls == 1 {
			w.Header().Set("X-CSwap-Error", "busy")
			w.Header().Set("Retry-After", "0")
			http.Error(w, "busy", http.StatusConflict)
			return
		}
		_, _ = w.Write(resp)
	}))
	defer hs.Close()
	c := New(hs.URL, WithRetry(2, 0))
	dst := make([]float32, len(want))
	if err := c.SwapInInto(context.Background(), "t", dst); err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(&wire.Frame{Data: dst}, &wire.Frame{Data: want}) {
		t.Errorf("dst = %v, want %v", dst, want)
	}
	if err := c.SwapInInto(context.Background(), "t", make([]float32, 3)); err == nil {
		t.Error("SwapInInto with a 3-element dst for a 5-element tensor succeeded")
	}
	if err := c.SwapInInto(context.Background(), "t", make([]float32, 9)); err == nil {
		t.Error("SwapInInto with a 9-element dst for a 5-element tensor succeeded")
	}
}
