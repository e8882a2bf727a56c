package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/placement"
	"cswap/internal/tensor"
	"cswap/internal/wire"
)

// TestCorruptRestoreRefused: with the executor's own verification off, a raw
// swap-out whose stored copy is corrupted on the way to the host pool
// restores one wrong float. The swap-in response still carries the CRC the
// tensor arrived with, so the client refuses it: ErrProtocol over a corrupt
// frame. While the server checksummed the bytes it held at swap-in time, the
// client took the wrong float with a nil error.
func TestCorruptRestoreRefused(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt})
	_, url := newInternalServer(t, WithVerify(false), WithFaults(inj))
	c, ctx := client.New(url), context.Background()
	if err := c.Register(ctx, "t", tensor.NewGenerator(7).Uniform(4096, 0.5).Data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "t", client.WithRaw()); err != nil {
		t.Fatal(err)
	}
	if n := inj.Stats().Corruptions; n != 1 {
		t.Fatalf("%d corruptions fired, want 1", n)
	}
	got, err := c.SwapIn(ctx, "t")
	if !errors.Is(err, client.ErrProtocol) || !strings.Contains(err.Error(), compress.ErrCorrupt.Error()) {
		t.Fatalf("swap-in of a corrupted restore: %d floats, err %v; want ErrProtocol over a corrupt frame", len(got), err)
	}
}

// crcPayload is a tensor of elems floats carrying the values a codec or a
// conversion could bend — −0, quiet and signalling NaNs with payloads,
// infinities — among half zeros, so every codec has work to do.
func crcPayload(elems int) []float32 {
	data := tensor.NewGenerator(41).Uniform(elems, 0.5).Data
	for i, v := range []float32{
		float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0x7fa00001),
		math.Float32frombits(0xffc12345), float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		data[97*i] = v
	}
	return data
}

// crcCodecs are the swap-outs a tensor's recorded CRC must survive: raw and
// every codec.
var crcCodecs = []struct {
	name string
	opt  client.SwapOption
}{
	{"raw", client.WithRaw()},
	{"ZVC", client.WithCodec(client.ZVC)},
	{"RLE", client.WithCodec(client.RLE)},
	{"CSR", client.WithCodec(client.CSR)},
	{"LZ4", client.WithCodec(client.LZ4)},
	{"HUF", client.WithCodec(client.HUF)},
}

// swapInBody posts a swap-in for name and returns the response body.
func swapInBody(t *testing.T, url, name string) []byte {
	t.Helper()
	req, err := wire.Encode(&wire.Frame{Type: wire.TypeSwapIn, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/swap-in", "application/octet-stream", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("swap-in %s: status %d, %v: %s", name, resp.StatusCode, err, body)
	}
	return body
}

// checkSwapIn holds name's swap-in response to the tensor-data frame over
// data with its CRC taken in a full pass, and the CRC the tensor's object on
// s holds to the CRC of data's wire bytes.
func checkSwapIn(t *testing.T, s *Server, url, name string, data []float32) {
	t.Helper()
	want, err := wire.Encode(&wire.Frame{Type: wire.TypeTensorData, Name: name, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if got := swapInBody(t, url, name); !bytes.Equal(got, want) {
		t.Fatalf("%s: swap-in answered %d bytes (CRC %x), want the %d bytes (CRC %x) registered",
			name, len(got), got[12:16], len(want), want[12:16])
	}
	ent, err := s.session(DefaultTenant).lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ent.mu.Lock()
	obj := ent.obj
	ent.mu.Unlock()
	if !obj.hasDataCRC || obj.dataCRC != crc32.ChecksumIEEE(want[len(want)-4*len(data):]) {
		t.Fatalf("%s: object holds CRC %#x (recorded %v), want the CRC of the registered float field", name, obj.dataCRC, obj.hasDataCRC)
	}
}

// TestSwapInAnswersRegisteredBytes: for raw and each codec, a swap-in answers
// exactly wire.Encode of a tensor-data frame over the registered data — the
// frame whose CRC a full pass would give — straight after a swap, through a
// tier demotion and promotion, and after a cluster drain migrated the
// tensor; and the object answering holds the CRC it arrived with.
func TestSwapInAnswersRegisteredBytes(t *testing.T) {
	const elems = 3<<14 + 5 // a few container chunks and a short tail
	data := crcPayload(elems)
	ctx := context.Background()

	t.Run("swap", func(t *testing.T) {
		s, url := newInternalServer(t)
		c := client.New(url)
		for _, cd := range crcCodecs {
			if err := c.Register(ctx, cd.name, data); err != nil {
				t.Fatal(err)
			}
			if err := c.SwapOut(ctx, cd.name, cd.opt); err != nil {
				t.Fatal(err)
			}
			checkSwapIn(t, s, url, cd.name, data)
		}
	})

	t.Run("tier", func(t *testing.T) {
		s, url := newInternalServer(t, WithTierDir(t.TempDir()))
		c := client.New(url)
		for i, cd := range crcCodecs {
			if err := c.Register(ctx, cd.name, data); err != nil {
				t.Fatal(err)
			}
			if err := c.SwapOut(ctx, cd.name, cd.opt); err != nil {
				t.Fatal(err)
			}
			ent, err := s.session(DefaultTenant).lookup(cd.name)
			if err != nil {
				t.Fatal(err)
			}
			ent.mu.Lock()
			moved, err := ent.obj.p.DemoteSwapped()
			ent.mu.Unlock()
			if err != nil || moved == 0 {
				t.Fatalf("%s: demotion moved %d bytes: %v", cd.name, moved, err)
			}
			checkSwapIn(t, s, url, cd.name, data)
			if got := s.Executor().Stats().TierPromotions; got != i+1 {
				t.Fatalf("%s: %d promotions after %d demoted swap-ins", cd.name, got, i+1)
			}
		}
	})

	t.Run("drain", func(t *testing.T) {
		cl, err := NewCluster(WithShards(2), WithDeviceCapacity(64<<20), WithHostCapacity(64<<20),
			WithVerify(true), WithRetryAfter(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(cl.Handler())
		t.Cleanup(func() {
			hs.Close()
			_ = cl.Close()
		})
		c := client.New(hs.URL)
		m := cl.Map()
		ring := m.Ring()
		var names []string // one per codec, all on shard 1
		for i := 0; len(names) < len(crcCodecs); i++ {
			name := fmt.Sprintf("%s/%d", crcCodecs[len(names)].name, i)
			if o, _ := ring.Owner(placement.Key(DefaultTenant, name)); o != 1 {
				continue
			}
			if err := c.Register(ctx, name, data); err != nil {
				t.Fatal(err)
			}
			if err := c.SwapOut(ctx, name, crcCodecs[len(names)].opt); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		if n, _, err := cl.DrainShard(1); err != nil || n != len(names) {
			t.Fatalf("drain moved %d tensors, want %d: %v", n, len(names), err)
		}
		for _, name := range names {
			checkSwapIn(t, cl.Shard(0), hs.URL, name, data)
		}
	})
}
