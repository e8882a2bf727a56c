// Swap-server: the serving layer end to end. By default this example
// starts an in-process cswapd-equivalent service on an ephemeral port,
// drives it with the public client — two tenants registering, swapping
// out through different codecs, and restoring bit-exactly — and prints
// the per-tenant accounting the service exposes over /metrics.
//
// With -connect the example skips the in-process service and drives an
// externally started daemon instead:
//
//	cswapd -addr 127.0.0.1:7077 &
//	go run ./examples/swap-server -connect http://127.0.0.1:7077
//
// The daemon's gates — swap counters, the tuner's codec switch, a cluster
// drain, KV batching, tier spill and restart, SLO lanes — are Go tests
// against the real binary: go test ./cmd/cswapd.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http/httptest"
	"strings"

	"cswap"
	"cswap/client"
)

func main() {
	connect := flag.String("connect", "", "drive an external daemon at this base URL instead of an in-process service")
	flag.Parse()

	base := *connect
	if base == "" {
		// In-process service: same code path cswapd runs, mounted on an
		// httptest listener so the example is self-contained.
		svc, err := cswap.NewSwapService(
			cswap.WithSwapDeviceCapacity(64<<20),
			cswap.WithSwapHostCapacity(256<<20),
			cswap.WithSwapVerify(true),
		)
		if err != nil {
			log.Fatal(err)
		}
		hs := httptest.NewServer(svc.Handler())
		defer func() {
			hs.Close()
			_ = svc.Close()
		}()
		base = hs.URL
		fmt.Printf("in-process swap service at %s\n", base)
	} else {
		fmt.Printf("connecting to %s\n", base)
	}

	ctx := context.Background()
	gen := cswap.NewTensorGenerator(42)

	// Two tenants share the service; each swaps a tensor of its own
	// sparsity through its own codec.
	tenants := []struct {
		name     string
		alg      client.Algorithm
		sparsity float64
	}{
		{"trainer-a", client.ZVC, 0.7},
		{"trainer-b", client.LZ4, 0.3},
	}
	for _, tn := range tenants {
		c := client.New(base, client.WithTenant(tn.name))
		want := gen.Uniform(64*1024, tn.sparsity).Data

		if err := c.Register(ctx, "act0", want); err != nil {
			log.Fatal(err)
		}
		if err := c.SwapOut(ctx, "act0", client.WithCodec(tn.alg)); err != nil {
			log.Fatal(err)
		}
		got, err := c.SwapIn(ctx, "act0")
		if err != nil {
			log.Fatal(err)
		}
		exact := len(got) == len(want)
		for i := 0; exact && i < len(want); i++ {
			exact = math.Float32bits(got[i]) == math.Float32bits(want[i])
		}
		fmt.Printf("%-10s %s  %6d KiB  sparsity %.0f%%  bit-exact %v\n",
			tn.name, tn.alg, len(want)*4/1024, tn.sparsity*100, exact)
		if !exact {
			log.Fatalf("%s: restore is not bit-exact", tn.name)
		}
	}

	// The service's own accounting, over the same endpoint an operator
	// scrapes.
	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, series := range []string{
		"executor_swap_outs_total",
		"executor_swap_ins_total",
		"server_sessions",
		`server_tenant_used_bytes{tenant="trainer-a"}`,
	} {
		fmt.Printf("  %-50s %s\n", series, sample(text, series))
	}
}

// sample pulls one raw sample value out of Prometheus exposition text.
func sample(text, series string) string {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	return ""
}
