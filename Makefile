# Build/test entry points, mirrored by .github/workflows/ci.yml.
GO          ?= go
FUZZTIME    ?= 5s
COVER_FLOOR ?= 70
# The natsim impairment stage feeds every adverse-network suite, so it
# carries a higher floor than the observability packages.
COVER_FLOOR_NATSIM ?= 80
# The buffer pool underpins the zero-copy hot path: a regression there
# corrupts payloads silently, so it carries the highest floor.
COVER_FLOOR_BUFPOOL ?= 85
# The sharded ingest tier owns the only cross-goroutine handoff in the
# pipeline; its accounting and merge invariants are all test-enforced.
COVER_FLOOR_INGEST ?= 85
# The QoE estimator and alert engine drive operator-facing paging
# decisions, so their logic (debounce, hysteresis, feature math) must
# stay almost fully unit-covered.
COVER_FLOOR_QOE   ?= 80
COVER_FLOOR_ALERT ?= 80

.PHONY: all vet staticcheck build test race fuzz-smoke cover bench bench-json bench-check proto-list trace-smoke impair-smoke shard-smoke daemon-smoke e2ebench-vet ci

all: build

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs the pinned staticcheck; local
# runs skip quietly when the binary is absent so `make ci` works in
# minimal environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)" ; \
	fi

build:
	$(GO) build ./...

# The end-to-end benchmark is its own module (e2ebench/go.mod, with a
# replace back to this repo), so `go build ./...` above skips it. Vet
# it against the working tree so an API change cannot silently break
# the benchmark. It needs no download: the module requires only this
# repo.
e2ebench-vet:
	cd e2ebench && GOFLAGS=-mod=readonly GOPROXY=off $(GO) vet .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target briefly against its seed corpus plus a short
# mutation budget. `go test -fuzz` accepts one target per invocation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzInspect -fuzztime=$(FUZZTIME) ./internal/dpi
	$(GO) test -run='^$$' -fuzz='FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/stun
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChannelData -fuzztime=$(FUZZTIME) ./internal/stun
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCompound -fuzztime=$(FUZZTIME) ./internal/rtcp
	$(GO) test -run='^$$' -fuzz='FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/rtp
	$(GO) test -run='^$$' -fuzz=FuzzParseLong -fuzztime=$(FUZZTIME) ./internal/quicwire
	$(GO) test -run='^$$' -fuzz=FuzzDTLSProbe -fuzztime=$(FUZZTIME) ./internal/proto/dtlsdrv
	$(GO) test -run='^$$' -fuzz=FuzzDecapsulate -fuzztime=$(FUZZTIME) ./internal/live
	$(GO) test -run='^$$' -fuzz=FuzzFeedBatch -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzImpair -fuzztime=$(FUZZTIME) ./internal/natsim

# Per-package coverage table, plus a hard floor on the observability
# packages: internal/metrics and internal/obs must each stay at or
# above $(COVER_FLOOR)%.
cover:
	$(GO) test -cover ./...
	@for pkg in internal/metrics internal/obs; do \
		$(GO) test -coverprofile=coverage.out ./$$pkg || exit 1; \
		$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) -v pkg=$$pkg \
			'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
			 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1; \
	done
	@$(GO) test -coverprofile=coverage.out ./internal/natsim || exit 1; \
	$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR_NATSIM) -v pkg=internal/natsim \
		'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
		 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1
	@$(GO) test -coverprofile=coverage.out ./internal/bufpool || exit 1; \
	$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR_BUFPOOL) -v pkg=internal/bufpool \
		'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
		 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1
	@$(GO) test -coverprofile=coverage.out ./internal/ingest || exit 1; \
	$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR_INGEST) -v pkg=internal/ingest \
		'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
		 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1
	@$(GO) test -coverprofile=coverage.out ./internal/qoe || exit 1; \
	$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR_QOE) -v pkg=internal/qoe \
		'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
		 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1
	@$(GO) test -coverprofile=coverage.out ./internal/alert || exit 1; \
	$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR_ALERT) -v pkg=internal/alert \
		'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
		 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1

# End-to-end trace smoke: generate a small capture, export its decision
# trace, and validate the JSONL against the event-schema linter. The
# -explain query must name the failing criterion for the seeded
# non-compliant STUN message.
trace-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/rtcgen -out $$dir -app Zoom -network wifi-p2p -duration 5s -runs 1 >/dev/null && \
	$(GO) run ./cmd/rtccheck -manifest $$dir/manifest.json -trace-out $$dir/trace.jsonl >/dev/null && \
	$(GO) run ./cmd/rtctrace -in $$dir/trace.jsonl -lint && \
	$(GO) run ./cmd/rtctrace -in $$dir/trace.jsonl -explain "Zoom" | grep -q "failed criterion" && \
	echo "trace-smoke: export, lint, and explain OK"

# Reduced impairment matrix under the race detector: -short trims the
# differential suite to 2 apps x 3 profiles x 2 seeds, the same cells
# the CI impair-matrix job runs.
impair-smoke:
	$(GO) test -short -race -count=1 -run 'TestImpair|TestRelayConcurrent|TestBurst|TestRunMatrixPublishesImpairStats' \
		./internal/natsim ./internal/appsim ./internal/trace ./internal/core

# Sharded-ingest smoke under the race detector: the shard-count
# invariance sweep, the accounting semantics, and the race hammer;
# plus the serial streaming differential pinned at GOMAXPROCS=2, where
# scheduler interleavings differ from both the 1-CPU and many-CPU
# shapes.
shard-smoke:
	$(GO) test -short -race -count=1 \
		-run 'TestShardCountInvariance|TestShardInvarianceUnderImpairment|TestShardedPCAPMatchesSerial|TestDropConservation|TestFlushBarrier|TestShardRaceHammer' \
		./internal/ingest
	GOMAXPROCS=2 $(GO) test -short -race -count=1 -run 'TestStreamingBatchEquivalence' ./internal/core

# End-to-end daemon smoke: start the rtclive compliance daemon against
# appsim traffic on ephemeral ports, scrape /compliance/trend,
# SIGHUP-reload with a changed config, and assert a clean SIGTERM
# drain with conservation accounting.
daemon-smoke:
	sh scripts/daemon_smoke.sh

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# Regenerate the hot-path throughput baseline: the scenario matrix
# (Feed / FeedBatch / batch over relay, P2P, and media-heavy loads)
# measured best-of-N and written as BENCH_hotpath.json. Run on a quiet
# machine and commit the result alongside the change that moved it.
bench-json:
	$(GO) run ./cmd/rtcbench -out BENCH_hotpath.json

# Regression gate against the committed baseline: fails on >15% ingest
# slowdown or any allocs/op increase beyond jitter in any scenario.
# When the current host differs from the baseline's recorded host
# (CPU model, core count, GOMAXPROCS), timing regressions demote to
# warnings — hardware deltas are not regressions — while the
# allocation gate stays hard. On hosts with >= 4 CPUs the gate also
# requires sharded4/media-heavy >= 3x sharded1 throughput.
bench-check:
	$(GO) run ./cmd/rtcbench -baseline BENCH_hotpath.json

# List the registered wire protocols: one row per handler with family,
# demultiplexing precedence, fuzz target, and wire fingerprint. The
# registry golden test (protolist_test.go) keeps this listing honest:
# it fails when a registered protocol is missing from the README or
# DESIGN docs or lacks a fuzz-smoke line above.
proto-list:
	$(GO) run ./cmd/rtccheck -protocols

ci: vet staticcheck build e2ebench-vet race fuzz-smoke cover trace-smoke impair-smoke shard-smoke daemon-smoke bench-check
