# Developer entry points. `make check` is the gate every change must pass:
# it compiles everything, vets, and runs the full suite under the race
# detector (the concurrency invariants in concurrency_test.go only bite
# with -race).

GO ?= go

.PHONY: check build vet fmt test race cover alloc-gate fuzz-smoke bench-compare bench-pairs loc

check: build vet fmt race cover alloc-gate fuzz-smoke bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt is a gate, not a suggestion: fail if any tracked Go file needs
# formatting (gofmt -l prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then 		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-mode coverage over the observability layer, the facade, the engine and
# the read path under it, with per-package floors: internal/obs is small and
# fully unit-testable (85%), the facade carries the error-path and
# cancellation tables (70%), internal/core holds the one query executor every
# method runs on (80%), and internal/storage and internal/rstar hold the one
# page read every query goes through (85% each): a refactor there must not
# shed tested paths silently.
cover:
	$(GO) test -race -coverprofile=cover-obs.out ./internal/obs | \
		awk '{ print } /coverage:/ { if ($$5+0 < 85.0) { print "internal/obs coverage below 85%"; exit 1 } }'
	$(GO) test -race -coverprofile=cover-facade.out . | \
		awk '{ print } /coverage:/ { if ($$5+0 < 70.0) { print "facade coverage below 70%"; exit 1 } }'
	$(GO) test -race -coverprofile=cover-core.out ./internal/core | \
		awk '{ print } /coverage:/ { if ($$5+0 < 80.0) { print "internal/core coverage below 80%"; exit 1 } }'
	$(GO) test -race -coverprofile=cover-storage.out ./internal/storage | \
		awk '{ print } /coverage:/ { if ($$5+0 < 85.0) { print "internal/storage coverage below 85%"; exit 1 } }'
	$(GO) test -race -coverprofile=cover-rstar.out ./internal/rstar | \
		awk '{ print } /coverage:/ { if ($$5+0 < 85.0) { print "internal/rstar coverage below 85%"; exit 1 } }'
	@rm -f cover-obs.out cover-facade.out cover-core.out cover-storage.out cover-rstar.out

# Allocation ceilings on the value-query read path (alloc_gate_test.go): one
# solo query per method, the tiled planner and the workers=4 paths on the
# 256×256 fixture. The file is tagged !race — the race detector changes
# allocation counts — so `make race` skips it and this target runs it plain.
alloc-gate:
	$(GO) test -run TestAllocCeilings .

# Five seconds of each native fuzz target over a decoder of untrusted bytes —
# the catalog's (no panic, an accepted blob re-encodes byte for byte), the
# FWB1 frame's (no panic, allocation bounded by the input, an encoded result
# round-trips), the FSC2 column's behind sidecar pages and wire columns (no
# panic, decode∘encode is the identity on any bit pattern) and the FSM1
# summary's behind the aggregate tier (no panic, allocation bounded by the
# input, an accepted summary re-encodes to the same bits and estimates). A
# failing input lands in the package's testdata/fuzz — commit it with the fix.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzOpenCatalog$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzFloatColumn$$' -fuzztime 5s
	$(GO) test ./internal/approx -run '^$$' -fuzz '^FuzzSummary$$' -fuzztime 5s

# Regression gate on the simulated-disk metrics: measure the deterministic
# in-process suites (solo, concurrent, update-load, tiled, aggregate — one
# 64-query rotation per cell, no listener opened) and compare pages/op,
# simns/op and qps_sim against BENCH_BASELINE.json.
# Wall clock, allocations and the served stack are benchmark/'s job.
BENCH_NEW ?= /tmp/fielddb-bench-new.json
bench-compare:
	$(GO) run ./cmd/fieldbench -bench-json $(BENCH_NEW)
	$(GO) run ./cmd/fieldbench -compare -tolerance 0.02 BENCH_BASELINE.json $(BENCH_NEW)

# Paired wall-clock runs of one benchmark workload, commit $(PARENT) against the
# working tree: N pairs through benchmark/run.sh on seeds 1..N, alternating
# which side runs first; prints each side's median and quartiles and the pairs
# won per end-to-end metric (scripts/bench-pairs.sh). N=10 takes ~8 minutes.
PARENT ?= HEAD
W ?= tiled-stored
N ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(W) $(N)

# The three line counts ROADMAP and CHANGES quote, over tracked files: non-test
# Go outside benchmark/, test Go outside benchmark/, and benchmark/.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l | xargs echo "non-test Go outside benchmark/:"
	@git ls-files '*_test.go' | grep -v '^benchmark/' | xargs cat | wc -l | xargs echo "test Go outside benchmark/:"
	@git ls-files 'benchmark/*.go' | xargs cat | wc -l | xargs echo "benchmark/ Go:"
