# CSWAP build and evaluation targets.

GO ?= go

.PHONY: all build vet test race race-all cover loc bench bench-compress bench-diff check serve-smoke tune-smoke cluster-smoke kv-smoke tier-smoke slo-smoke report csv examples clean

all: build test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, so `make test`, `make
# check` and CI enforce formatting — and on a second import of "unsafe":
# the program has exactly one (internal/compress/view.go, the byte view of
# a []float32); bench/ and test files are the harness's own business — and on
# the service importing the reproduction: what cswapd and the client pull in
# stays clear of the simulator, the model zoo and the figure drivers
# (DESIGN §3 lists the closure).
REPRO_PKGS = core|dnn|experiments|gpu|pcie|profiler|regress|sim|sparsity|swap
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }
	@unsafe=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '^\s*(import\s+)?(\w+\s+)?"unsafe"$$' .); \
		[ "$$unsafe" = "./internal/compress/view.go" ] || { echo 'files importing "unsafe" (want only internal/compress/view.go):'; echo "$$unsafe"; exit 1; }
	@repro=$$($(GO) list -deps ./cmd/cswapd ./client | grep -E '^cswap/internal/($(REPRO_PKGS))$$'); \
		[ -z "$$repro" ] || { echo 'reproduction packages in the import closure of ./cmd/cswapd ./client:'; echo "$$repro"; exit 1; }

# The packages whose liveness depends on the core count: the shared worker
# pool, the executor's async pipeline on top of it, and the serving layer
# on top of that. They run at GOMAXPROCS 1, 2 and 4 on every gate, because
# a pool deadlock that only bites at low core counts passed unnoticed on
# an 8-core box once.
CORE_PKGS = ./internal/compress ./internal/executor ./internal/server

test: vet
	$(GO) test ./...
	$(GO) test -cpu 1,2,4 $(CORE_PKGS)

# Race-check the swapping data path (the concurrent hot path, including
# the async pipeline's bounded-window tests), the lock-free metrics
# registry, and the serving layer (frame codec, service, client — the e2e
# ladder drives concurrent HTTP swaps through all three). The watchdog
# turns a deadlocked drain/backpressure wait into a goroutine dump instead
# of a hung CI job.
race:
	$(GO) test -race -timeout 300s -cpu 1,2,4 $(CORE_PKGS)
	$(GO) test -race -timeout 300s ./internal/metrics/... ./internal/placement/... ./internal/sched/... \
		./internal/tier/... ./internal/wire/... ./client/...

race-all:
	$(GO) test -race -timeout 600s ./...

cover:
	$(GO) test -cover ./...

# Code size, the measure ROADMAP items 6 and 12 are judged by: non-test Go
# lines that are neither blank nor comment-only — the layers above the
# executor per package and in total, then the stored-payload path (executor,
# tier, pool accounting) the same way, then the whole program outside bench/.
LOC_PKGS = internal/wire client internal/server
LOC_PKGS_STORE = internal/executor internal/tier internal/devmem
loc:
	@count() { xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l; }; \
	for group in "$(LOC_PKGS)" "$(LOC_PKGS_STORE)"; do \
		total=0; for d in $$group; do \
			n=$$(ls $$d/*.go | grep -v _test | count); \
			printf '%-17s %5d\n' $$d $$n; total=$$((total + n)); \
		done; printf '%-17s %5d\n' total $$total; \
	done; \
	printf '%-17s %5d\n' 'all but bench/' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | count)

# Regenerate every table and figure as benchmark metrics, captured as
# machine-readable test2json events in BENCH_metrics.json.
bench:
	$(GO) test -bench=. -benchmem -json -run='^$$' ./... > BENCH_metrics.json
	@grep -c '"Action":"output"' BENCH_metrics.json >/dev/null && echo "wrote BENCH_metrics.json"

# Codec hot-path benchmarks -> machine-readable BENCH_compress.json
# baseline (committed). They run at -cpu 1 whatever the box: allocs/op is
# the gate's strict criterion and depends on the core count (sync.Pool is
# per-P, so at two cores the container rows read 5 allocs for the recorded
# 4 and SwapHotPath 13 for 11), and the baseline was recorded at one.
# Regenerate whenever internal/compress
# gains or loses code: the tight decode loops are sensitive to function
# placement (a new function can shift a hot loop onto an unlucky address
# for ~2x ns/op with identical machine code), so ns/op is only comparable
# between binaries with the same layout. allocs/op is layout-immune.
BENCH_HOT = -cpu 1 -bench='BenchmarkCodec|BenchmarkParallelContainer|BenchmarkSwapHotPath|BenchmarkServerRoundTrip|BenchmarkBatchSwap' \
	-benchmem -count=3 -run='^$$' ./internal/compress/ ./internal/executor/ ./internal/server/

bench-compress:
	$(GO) test $(BENCH_HOT) | $(GO) run ./cmd/cswap-benchdiff -write BENCH_compress.json

# Allocation-regression gate: rerun the codec benchmarks and fail on >10%
# ns/op or ANY allocs/op regression against the committed baseline. The
# server round trip and the batch head-to-head cross the HTTP stack and
# the scheduler, so they get the lenient band (5x ns/op threshold, 10%
# allocs/op) instead of the strict codec-loop rules.
bench-diff:
	$(GO) test $(BENCH_HOT) | $(GO) run ./cmd/cswap-benchdiff -baseline BENCH_compress.json -lenient 'ServerRoundTrip|BatchSwap'

# Umbrella gate: everything a change must pass before it lands — build,
# vet+test, the race detector over the swap path, the allocation-
# regression gate against the committed benchmark baseline, and the
# daemon smoke test.
check: build test race bench-diff serve-smoke tune-smoke cluster-smoke kv-smoke tier-smoke slo-smoke

# The six daemon smokes share one recipe: build the real cswapd, boot it
# on an ephemeral port with the gate's daemon flags ($(1)), drive it with
# the example client in the gate's mode ($(2)), then SIGTERM it and require
# a clean drained exit — once per leg ($(3), default a single leg), each leg
# a fresh daemon over the same scratch directory.
define smoke
@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
$(GO) build -o "$$tmp/cswapd" ./cmd/cswapd || exit 1; \
for leg in $(or $(3),only); do \
	rm -f "$$tmp/addr"; \
	"$$tmp/cswapd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" $(1) & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "$@: daemon never wrote its address ($$leg leg)"; kill $$pid 2>/dev/null; exit 1; }; \
	$(GO) run ./examples/swap-server -connect "http://$$(cat "$$tmp/addr")" $(2) || { kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid && wait $$pid || exit 1; \
	echo "$@: clean drained exit ($$leg leg)"; \
done
endef

# Serve-smoke: the example client asserts the swap counters moved via
# /metrics.
serve-smoke:
	$(call smoke,-device 256 -host 1024,-smoke)

# Tune-smoke: the online tuner is on; a drifting-sparsity workload goes
# through the Auto selector and the tuner's codec-switch counter must
# move. The tuner knobs mirror the e2e test: a small grid so Huffman's
# per-chunk code table amortizes on smoke-sized tensors, a glacial modeled
# link so ratio dominates kernel noise, fast ticks and a two-swap evidence
# budget so the smoke completes in seconds.
tune-smoke:
	$(call smoke,-device 256 -host 1024 -grid 4 -block 64 -tune -tune-interval 50ms \
		-tune-link 131072 -tune-min-swaps 2 -tune-probe 16384,-drift)

# Cluster-smoke: a 3-shard cluster and the cluster-aware client (keys
# spread across every shard, live drain of shard 1, bit-exact restores,
# per-shard /metrics assertions).
cluster-smoke:
	$(call smoke,-shards 3 -device 256 -host 1024,-cluster)

# KV-smoke: the batch block API under the example's paged KV-cache decode
# loop: pool registration, per-step batch swap-outs/swap-ins verified
# bit-exact, the 64-single vs one-64-block head-to-head (<25% wall time),
# and /metrics assertions on the batch counters and the coalescing-ratio
# histogram.
kv-smoke:
	$(call smoke,-device 256 -host 1024,-kv)

# Tier-smoke: a deliberately tiny pinned-host pool and a disk spill tier
# under the overflow workload (every swap-out must complete by demoting
# cold blobs, /metrics must show executor_tier_demotions_total > 0 and
# zero quota rejections, every restore bit-exact through the promote
# path) — then a second daemon on the SAME tier directory, where the first
# leg left tiered blobs behind, must report an empty tier before the
# workload repeats: the boot-time orphan scrub reclaimed them.
tier-smoke:
	$(call smoke,-device 256 -host 1 -tier-dir "$$tmp/tier",-pressure,first restart)

# SLO-smoke: the admission scheduler is on with a small in-flight window
# so the lanes actually queue; the example's speculative-flood-plus-
# critical-train workload must show via /metrics that both lanes admitted
# work and the critical lane expired nothing.
slo-smoke:
	$(call smoke,-device 256 -host 1024 -max-inflight 2 -sched,-slo)

# Full evaluation -> REPORT.md (and CSV series under data/).
report:
	$(GO) run ./cmd/cswap report -o REPORT.md

csv:
	$(GO) run ./cmd/cswap report -o REPORT.md -csv data

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tune-compression
	$(GO) run ./examples/framework-comparison
	$(GO) run ./examples/real-swap
	$(GO) run ./examples/vgg16-imagenet
	$(GO) run ./examples/swap-server

clean:
	rm -f test_output.txt bench_output.txt BENCH_metrics.json
	rm -rf data
