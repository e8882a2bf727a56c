package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cswap/internal/placement"
	"cswap/internal/wire"
)

// seenRequest is what the recording daemon saw of one operation.
type seenRequest struct {
	path  string
	body  []byte
	shard string
}

// recorder is a daemon that answers every operation with the response
// frame the operation table promises, and remembers the last request.
type recorder struct {
	t    *testing.T
	m    placement.Map
	last seenRequest
}

func (rec *recorder) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(rec.m)
	})
	mux.HandleFunc("POST /v1/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rec.last = seenRequest{path: r.URL.Path, body: body, shard: r.Header.Get(shardHeader)}
		f, err := wire.Decode(body, 0)
		if err != nil {
			rec.t.Errorf("%s: undecodable request: %v", r.URL.Path, err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := &wire.Frame{Type: wire.Ops[f.Type].Resp, Name: f.Name}
		if resp.Type == wire.TypeBatchData {
			resp.BlockElems = 1
		}
		b, err := wire.Encode(resp)
		if err != nil {
			rec.t.Fatal(err)
		}
		_, _ = w.Write(b)
	})
	return mux
}

// TestTenOpsOneBody drives every operation through both client types
// against the same recording daemon: the shared bodies must put the same
// bytes on the same URL whichever round trip carries them, the cluster
// client must add the owning shard as its routing hint and the plain
// client none, and the URL must be the operation table's.
func TestTenOpsOneBody(t *testing.T) {
	rec := &recorder{t: t, m: placement.Map{Version: 1, Replicas: placement.DefaultReplicas}}
	for id := 0; id < 3; id++ {
		rec.m.Shards = append(rec.m.Shards, placement.Shard{ID: id, State: placement.StateActive})
	}
	hs := httptest.NewServer(rec.handler())
	t.Cleanup(hs.Close)
	plain := New(hs.URL, WithTenant("tn"), WithRetry(0, 0))
	cluster := NewCluster(hs.URL, WithTenant("tn"), WithRetry(0, 0))
	ring := rec.m.Ring()

	ctx := context.Background()
	hint := []SwapOption{WithLane(LaneCritical), WithDeadline(3 * time.Millisecond)}
	cases := []struct {
		req  wire.Type
		name string
		call func(o *ops) error
	}{
		{wire.TypeRegister, "a/act", func(o *ops) error { return o.Register(ctx, "a/act", []float32{1, 0, 2}) }},
		{wire.TypeSwapOut, "a/act", func(o *ops) error { return o.SwapOut(ctx, "a/act", WithCodec(LZ4)) }},
		{wire.TypeSwapIn, "b/act", func(o *ops) error { _, err := o.SwapIn(ctx, "b/act", hint...); return err }},
		{wire.TypePrefetch, "c/act", func(o *ops) error { return o.Prefetch(ctx, "c/act") }},
		{wire.TypeFree, "d/act", func(o *ops) error { return o.Free(ctx, "d/act") }},
		{wire.TypeRegisterPool, "kv0", func(o *ops) error { return o.RegisterPool(ctx, "kv0", 4, 16) }},
		{wire.TypeBatchData, "kv1", func(o *ops) error {
			return o.WriteBlocks(ctx, "kv1", []int{2, 3, 7}, make([]float32, 12))
		}},
		{wire.TypeBatchSwapOut, "kv2", func(o *ops) error { return o.SwapOutBlocks(ctx, "kv2", []int{7, 2, 2}, WithRaw()) }},
		{wire.TypeBatchSwapIn, "kv3", func(o *ops) error { _, err := o.SwapInBlocks(ctx, "kv3", []int{1, 2}, hint...); return err }},
		{wire.TypeBatchPrefetch, "kv4", func(o *ops) error { return o.PrefetchBlocks(ctx, "kv4", []int{9}) }},
	}
	covered := map[wire.Type]bool{}
	for _, tc := range cases {
		covered[tc.req] = true
		op := wire.Ops[tc.req]
		if err := tc.call(&plain.ops); err != nil {
			t.Fatalf("%s via Client: %v", op.Path, err)
		}
		direct := rec.last
		if err := tc.call(&cluster.ops); err != nil {
			t.Fatalf("%s via ClusterClient: %v", op.Path, err)
		}
		routed := rec.last

		if want := "/v1/" + op.Path; direct.path != want || routed.path != want {
			t.Errorf("%s: paths %q (Client) and %q (ClusterClient), want %q", op.Path, direct.path, routed.path, want)
		}
		if !bytes.Equal(direct.body, routed.body) {
			t.Errorf("%s: the two clients sent different bodies:\n  %x\n  %x", op.Path, direct.body, routed.body)
		}
		if f, err := wire.Decode(direct.body, 0); err != nil || f.Type != tc.req || f.Name != tc.name {
			t.Errorf("%s: body decodes to %+v (%v), want a %s frame for %q", op.Path, f, err, tc.req, tc.name)
		}
		if direct.shard != "" {
			t.Errorf("%s: plain Client sent shard hint %q", op.Path, direct.shard)
		}
		owner, _ := ring.Owner(placement.Key("tn", tc.name))
		if routed.shard != strconv.Itoa(owner) {
			t.Errorf("%s: ClusterClient hinted shard %q, ring owner is %d", op.Path, routed.shard, owner)
		}
	}
	for typ, op := range wire.Ops {
		if op.Path != "" && !covered[wire.Type(typ)] {
			t.Errorf("operation %s has no client case", op.Path)
		}
	}
}
