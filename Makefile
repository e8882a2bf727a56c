# CSWAP build and evaluation targets.

GO ?= go

.PHONY: all build vet test race race-all cover loc bench bench-compress bench-diff check serve-smoke tune-smoke cluster-smoke kv-smoke tier-smoke slo-smoke report csv examples clean

all: build test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, so `make test`, `make
# check` and CI enforce formatting — and on any other import of "unsafe"
# than the program's two (internal/compress/view.go, the byte view of a
# []float32 and the ZVC loops' pointer cursors, and
# internal/compress/huffman.go, the pointer cursors of the paired Huffman
# decode loop and of the packer); bench/ and test files are
# the harness's own business — and on
# the service importing the reproduction: what cswapd and the client pull in
# stays clear of the simulator and its timeline, the model zoo, the figure
# drivers and the paper's Bayesian launch search (DESIGN §3 lists the
# closure).
REPRO_PKGS = bayesopt|core|dnn|experiments|gpu|linalg|pcie|profiler|regress|sim|sparsity|swap|trace
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }
	@unsafe=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '^\s*(import\s+)?(\w+\s+)?"unsafe"$$' . | sort); \
		[ "$$(echo $$unsafe)" = "./internal/compress/huffman.go ./internal/compress/view.go" ] || { echo 'files importing "unsafe" (want only internal/compress/huffman.go and view.go):'; echo "$$unsafe"; exit 1; }
	@repro=$$($(GO) list -deps ./cmd/cswapd ./client | grep -E '^cswap/internal/($(REPRO_PKGS))$$'); \
		[ -z "$$repro" ] || { echo 'reproduction packages in the import closure of ./cmd/cswapd ./client:'; echo "$$repro"; exit 1; }

# The packages whose liveness depends on the core count: the shared worker
# pool, the executor's async calls on top of it (each one job on that pool,
# under one slot of the executor's window), and the serving layer on top of
# that. They run at GOMAXPROCS 1, 2 and 4 on every gate, because
# a pool deadlock that only bites at low core counts passed unnoticed on
# an 8-core box once.
CORE_PKGS = ./internal/compress ./internal/executor ./internal/server

test: vet
	$(GO) test ./...
	$(GO) test -cpu 1,2,4 $(CORE_PKGS)

# Race-check the swapping data path (the concurrent hot path, including
# the tests of the executor's bounded window, one slot per async call), the
# scheduler whose one slot per served swap is the service's admission and
# shutdown barrier, the lock-free metrics registry, the serving layer
# (frame codec, service, client — the e2e ladder drives concurrent HTTP
# swaps through all three), and the daemon
# itself: cmd/cswapd's gates re-execute the race-built test binary as
# cswapd, so the six gates run against an instrumented daemon. The watchdog
# turns a deadlocked drain/backpressure wait into a goroutine dump instead
# of a hung CI job.
race:
	$(GO) test -race -timeout 300s -cpu 1,2,4 $(CORE_PKGS)
	$(GO) test -race -timeout 300s ./internal/metrics/... ./internal/placement/... ./internal/sched/... \
		./internal/tier/... ./internal/wire/... ./client/... ./cmd/cswapd

race-all:
	$(GO) test -race -timeout 600s ./...

cover:
	$(GO) test -cover ./...

# Code size, the measure ROADMAP item 14 is judged by: non-test Go
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

# Codec hot-path benchmarks (and the spill tier store's cycle) -> machine-readable BENCH_compress.json
# baseline (committed). They run at -cpu 1 whatever the box: allocs/op is
# the gate's strict criterion and depends on the core count (sync.Pool is
# per-P, so at two cores the container rows read 5 allocs for the recorded
# 4 and SwapHotPath 13 for 11), and the baseline was recorded at one.
# Regenerate whenever internal/compress
# gains or loses code: the tight decode loops are sensitive to function
# placement (a new function can shift a hot loop onto an unlucky address
# for ~2x ns/op with identical machine code), so ns/op is only comparable
# between binaries with the same layout. allocs/op is layout-immune.
BENCH_HOT = -cpu 1 -bench='BenchmarkCodec|BenchmarkParallelContainer|BenchmarkSwapHotPath|BenchmarkServerRoundTrip|BenchmarkBatchSwap|BenchmarkTierCycle' \
	-benchmem -count=3 -run='^$$' ./internal/compress/ ./internal/executor/ ./internal/server/ ./internal/tier/

bench-compress:
	$(GO) test $(BENCH_HOT) | $(GO) run ./cmd/cswap-benchdiff -write BENCH_compress.json

# Allocation-regression gate: rerun the codec benchmarks and fail on >10%
# ns/op or ANY allocs/op regression against the committed baseline. The
# server round trip and the batch head-to-head cross the HTTP stack and
# the scheduler, and the tier cycle the kernel's page cache, so they get
# the lenient band (5x ns/op threshold, 10% allocs/op) instead of the
# strict codec-loop rules.
bench-diff:
	$(GO) test $(BENCH_HOT) | $(GO) run ./cmd/cswap-benchdiff -baseline BENCH_compress.json -lenient 'ServerRoundTrip|BatchSwap|TierCycle'

# Umbrella gate: everything a change must pass before it lands — build,
# vet+test (which runs the daemon gates), the race detector over the swap
# path and the daemon, and the allocation-regression gate against the
# committed benchmark baseline.
check: build test race bench-diff

# The six daemon gates are one table-driven Go test against the real cswapd
# (cmd/cswapd, TestGates): boot on an ephemeral port, drive it with the
# public client, assert /metrics, then SIGTERM and require a clean drained
# exit. `make test` runs them all; each target here runs one.
SMOKES = serve-smoke tune-smoke cluster-smoke kv-smoke tier-smoke slo-smoke
$(SMOKES): %-smoke:
	$(GO) test -count=1 -run 'TestGates/$*$$' ./cmd/cswapd

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
