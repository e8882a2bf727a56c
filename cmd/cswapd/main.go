// Command cswapd runs the CSWAP swap service daemon: a multi-tenant,
// network-facing front end over the functional swapping executor. Clients
// (the client package, or anything speaking the wire frame protocol over
// HTTP) register float32 tensors, swap them out through the real codecs to
// the pinned-host pool, and swap them back bit-exactly; paged block pools
// (register-pool and the batch-swap operations) move KV-cache-style block
// lists the same way, one coalesced run per codec launch; /metrics exposes
// the shared registry in Prometheus text format.
//
// Usage:
//
//	cswapd [-addr :7077] [-addr-file PATH] [-shards 1] [-device 1024]
//	       [-host 4096] [-max-inflight 4] [-quota 0] [-verify] [-grid 128]
//	       [-block 64] [-tune] [-tune-interval 2s] [-tune-drift 0.15]
//	       [-tier-dir DIR] [-tier-cap 0] [-tier-quota 0] [-tier-watermark 0]
//	       [-sched] [-sched-lanes C,N,S] [-sched-starve 20ms]
//
// Sizes are MiB; -quota 0 grants each tenant the full device capacity.
// -tier-dir attaches a compressed disk spill tier under the pinned-host
// pool: cold swapped payloads demote to CRC-checked extents of one scratch
// file, DIR/spill, when the host pool runs out, promote back transparently
// on swap-in, and a tenant-quota 507 becomes demote-then-admit, which moves
// the tenant's swapped tensors and block-pool runs alike (see /metrics,
// executor_tier_* and server_tier_* series). The tier is scratch: boot
// removes what an earlier daemon left in DIR, unread
// (server_tier_orphan_bytes_scrubbed_total), and a clean exit removes the
// file. -tier-cap bounds the committed blob bytes; 0 sizes the tier at four
// times the host capacity. -tier-quota bounds each tenant's tier-charged
// uncompressed bytes when demote-then-admit picks what to move — it demotes
// an object only while the object's whole size still fits (0 grants the
// full tier capacity); demotions under host pressure or the watermark are
// charged to the tenant, tensors and pool runs alike, but never refused. A
// cluster gives each shard DIR/shard-N.
// -tier-watermark F (0 < F < 1) adds a background demoter: whenever the
// host pool is more than F full, cold payloads demote to the tier ahead of
// demand (executor_tier_demotions_total{reason="watermark"}).
// -tune enables the online per-tenant tuner: swap-outs requesting the Auto
// algorithm follow its live codec verdicts, retuned as tenant sparsity
// profiles drift, and each switch to a new codec re-scans the launch grid
// (1, 2, 4, … up to 1024 at the -block in force; see /metrics,
// server_tuner_* series). The -tune-* knobs need -tune. -grid is the most
// chunks a compressed blob is cut into (none below 64 KiB, so a tensor
// under 128 KiB is one chunk at any grid);
// -block is validated and kept for the paper's geometry, but on the CPU it
// changes neither the blob nor the worker count.
// Admission is one path either way: each shard's scheduler (internal/sched)
// hands out -max-inflight slots. Without -sched its lanes have depth zero —
// a swap that finds every slot taken is refused at once with 429
// "saturated" + Retry-After, never queued. -sched gives the lanes depth:
// requests queue briefly in three bounded lanes (critical > normal >
// speculative, earliest deadline first within a lane) keyed by the client's
// WithLane/WithDeadline hints, deadline-expired waiters answer 429
// "expired", and in-flight speculative prefetches are shed at run
// boundaries while critical work starves (server_sched_* and
// executor_sched_* series). -sched-lanes bounds the three queues
// ("critical,normal,speculative", 0 = default 64); -sched-starve sets the
// critical queue age that triggers shedding.
// -shards N (N > 1) runs the daemon as a multi-executor cluster: N
// complete shards — each with its own device/host pools, admission
// scheduler, and tuner, and with the per-shard knobs above applied to each —
// consistent-hash-routed by (tenant, tensor) key. /cluster publishes the
// shard map, /metrics labels every shard's series with shard="N", and
// POST /admin/drain?shard=N live-migrates one shard's tensors onto the
// rest.
// SIGINT/SIGTERM shut the daemon down gracefully: intake stops (503s),
// open requests finish, the executor drains its in-flight tickets, and
// only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cswap/internal/compress"
	"cswap/internal/sched"
	"cswap/internal/server"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address (host:port; port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts wrapping -addr :0)")
	shards := flag.Int("shards", 1, "executor shards (>1 runs the consistent-hash cluster; per-shard knobs apply to each)")
	deviceMiB := flag.Int64("device", 1024, "device pool capacity, MiB")
	hostMiB := flag.Int64("host", 4096, "pinned-host pool capacity, MiB")
	maxInFlight := flag.Int("max-inflight", 0, "bound on concurrent swap operations (0 = executor default)")
	quotaMiB := flag.Int64("quota", 0, "per-tenant device-memory quota, MiB (0 = full device capacity)")
	tierDir := flag.String("tier-dir", "", "disk spill tier directory, holding one scratch file that boot empties and a clean exit removes (empty disables tiering; a cluster shards it into subdirectories)")
	tierCapMiB := flag.Int64("tier-cap", 0, "spill tier capacity in committed blob MiB (0 = 4x host capacity)")
	tierQuotaMiB := flag.Int64("tier-quota", 0, "per-tenant tier quota in uncompressed MiB, bounding demote-then-admit only (it demotes a tensor or pool only while the object's whole size fits); pressure and watermark demotions are charged, never refused (0 = full tier capacity)")
	tierWatermark := flag.Float64("tier-watermark", 0, "host-pool occupancy fraction that triggers background demotion to the tier (0 disables; needs -tier-dir)")
	schedOn := flag.Bool("sched", false, "let swaps queue for an admission slot in bounded priority lanes with deadlines (default: refuse with 429 when all slots are taken)")
	schedLanes := flag.String("sched-lanes", "", "per-lane queue depths as critical,normal,speculative (0 or empty = defaults)")
	schedStarve := flag.Duration("sched-starve", 0, "critical queue age that sheds in-flight speculative work (0 = 20ms default)")
	verify := flag.Bool("verify", true, "checksum-verify every restore")
	grid := flag.Int("grid", 0, "codec launch grid, the most chunks a compressed blob is cut into, none below 64 KiB (0 = executor default, 128)")
	block := flag.Int("block", 0, "codec launch block, 64 or 128 (0 = executor default, 64); on the CPU it changes neither the blob nor the worker count")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on waiting out open requests at shutdown")
	tune := flag.Bool("tune", false, "enable the online per-tenant tuner (Auto swap-outs follow its verdicts)")
	tuneInterval := flag.Duration("tune-interval", 0, "tuner tick period (0 = 2s default)")
	tuneDrift := flag.Float64("tune-drift", 0, "EWMA-sparsity drift that triggers a retune (0 = 0.15 default)")
	tuneLink := flag.Float64("tune-link", 0, "modeled swap-link bandwidth, bytes/s (0 = 12e9 default)")
	tuneMinSwaps := flag.Int("tune-min-swaps", 0, "swap-outs required before the tuner acts on a tenant (0 = 4 default)")
	tuneProbe := flag.Int("tune-probe", 0, "synthetic probe tensor size, elements (0 = 64Ki default)")
	flag.Parse()

	opts := []server.Option{
		server.WithDeviceCapacity(*deviceMiB << 20),
		server.WithHostCapacity(*hostMiB << 20),
		server.WithMaxInFlight(*maxInFlight),
		server.WithTenantQuota(*quotaMiB << 20),
		server.WithVerify(*verify),
		server.WithLaunch(launch(*grid, *block)),
	}
	if *tune {
		opts = append(opts, server.WithTuner(server.TunerConfig{
			Enabled:         true,
			Interval:        *tuneInterval,
			DriftThreshold:  *tuneDrift,
			LinkBytesPerSec: *tuneLink,
			MinSwaps:        *tuneMinSwaps,
			ProbeElems:      *tuneProbe,
		}))
	} else if *tuneInterval != 0 || *tuneDrift != 0 || *tuneLink != 0 || *tuneMinSwaps != 0 || *tuneProbe != 0 {
		log.Fatal("cswapd: -tune-interval/-tune-drift/-tune-link/-tune-min-swaps/-tune-probe need -tune")
	}
	if *tierDir != "" {
		opts = append(opts,
			server.WithTierDir(*tierDir),
			server.WithTierCap(*tierCapMiB<<20),
			server.WithTenantTierQuota(*tierQuotaMiB<<20),
			server.WithTierWatermark(*tierWatermark),
		)
	} else if *tierCapMiB != 0 || *tierQuotaMiB != 0 || *tierWatermark != 0 {
		log.Fatal("cswapd: -tier-cap/-tier-quota/-tier-watermark need -tier-dir")
	}
	if *schedOn {
		sc := server.SchedConfig{Enabled: true, StarveAfter: *schedStarve}
		if *schedLanes != "" {
			depths, err := parseLanes(*schedLanes)
			if err != nil {
				log.Fatalf("cswapd: -sched-lanes: %v", err)
			}
			sc.LaneDepth = depths
		}
		opts = append(opts, server.WithSched(sc))
	} else if *schedLanes != "" || *schedStarve != 0 {
		log.Fatal("cswapd: -sched-lanes/-sched-starve need -sched")
	}

	// service is what the daemon needs from either topology; the default
	// single-shard Server keeps its unlabeled metric series and hot path,
	// while -shards N>1 runs the cluster router.
	type service interface {
		Handler() http.Handler
		Drain()
		Close() error
	}
	var svc service
	var err error
	if *shards > 1 {
		svc, err = server.NewCluster(append(opts, server.WithShards(*shards))...)
	} else {
		svc, err = server.NewServer(opts...)
	}
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cswapd listening on %s (%d shard(s), device %d MiB, host %d MiB per shard)\n",
		ln.Addr(), *shards, *deviceMiB, *hostMiB)

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("cswapd: %s: draining", s)
	case err := <-serveErr:
		log.Fatal(err)
	}

	// Shutdown ordering: stop intake first so new requests see 503 while
	// open ones finish, wait the handlers out, then drain and close the
	// executor — no in-flight ticket is abandoned.
	svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("cswapd: http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Printf("cswapd: close: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("cswapd: serve: %v", err)
	}
	log.Printf("cswapd: drained, exiting")
}

// launch resolves -grid/-block into the codec launch geometry: a flag left
// at 0 keeps the executor's default for its half (grid 128, block 64 — what
// executor.New installs for a zero Launch), so either flag alone is honoured.
func launch(grid, block int) compress.Launch {
	l := compress.Launch{Grid: 128, Block: 64}
	if grid != 0 {
		l.Grid = grid
	}
	if block != 0 {
		l.Block = block
	}
	return l
}

// parseLanes parses "critical,normal,speculative" queue depths; empty or
// zero fields keep the scheduler default.
func parseLanes(s string) ([sched.NumLanes]int, error) {
	var depths [sched.NumLanes]int
	parts := strings.Split(s, ",")
	if len(parts) != sched.NumLanes {
		return depths, fmt.Errorf("want %d comma-separated depths, got %q", sched.NumLanes, s)
	}
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return depths, fmt.Errorf("lane depth %q must be a non-negative integer", p)
		}
		depths[i] = n
	}
	return depths, nil
}
