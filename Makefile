# Developer entry points. `make check` is the gate every change must pass:
# it compiles everything (for three more platforms too), vets, and runs the
# full suite once under the race detector (the concurrency invariants in
# concurrency_test.go only bite with -race), with coverage floors read off
# that same run.

GO ?= go

.PHONY: check build cross vet fmt test race alloc-gate fuzz-smoke bench-compare bench-pairs loc

check: build cross vet fmt race alloc-gate fuzz-smoke bench-compare

build:
	$(GO) build ./...

# The platforms without the Linux vector read (internal/storage/disk_other.go)
# read a page run one positioned read per page: build everything, and vet the
# storage package, for three of them so that path keeps compiling.
CROSS_GOOS = darwin windows freebsd
cross:
	@for os in $(CROSS_GOOS); do \
		echo "GOOS=$$os"; \
		GOOS=$$os $(GO) build ./... && GOOS=$$os $(GO) vet ./internal/storage || exit 1; \
	done

vet:
	$(GO) vet ./...

# gofmt is a gate, not a suggestion: fail if any tracked Go file needs
# formatting (gofmt -l prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then 		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The suite under the race detector, once, with per-package coverage floors
# read from the same run: internal/obs is small and fully unit-testable (85%),
# the facade carries the error-path and cancellation tables (70%),
# internal/core holds the one query executor every method runs on (80%),
# internal/storage and internal/rstar hold the one page read every query goes
# through (85% each), and internal/sfc keys every cell of every build (95%):
# a refactor there must not shed tested paths silently.
COVER_FLOORS = fielddb=70 fielddb/internal/obs=85 fielddb/internal/core=80 \
	fielddb/internal/storage=85 fielddb/internal/rstar=85 fielddb/internal/sfc=95
race:
	@{ $(GO) test -race -coverprofile=cover.out ./...; echo $$? > race.status; } | tee race.out; \
	status=$$(cat race.status); rm -f cover.out race.status; \
	if [ $$status -ne 0 ]; then rm -f race.out; exit $$status; fi
	@awk -v floors="$(COVER_FLOORS)" ' \
		BEGIN { n = split(floors, f, " "); for (i = 1; i <= n; i++) { split(f[i], kv, "="); floor[kv[1]] = kv[2] } } \
		$$1 == "ok" && ($$2 in floor) { for (i = 3; i < NF; i++) if ($$i == "coverage:") { seen[$$2] = 1; \
			if ($$(i+1) + 0 < floor[$$2]) { print $$2 " coverage below " floor[$$2] "%"; bad = 1 } } } \
		END { for (p in floor) if (!(p in seen)) { print p ": no coverage reported"; bad = 1 }; exit bad }' race.out; \
	status=$$?; rm -f cover.out race.out; exit $$status

# Allocation ceilings on the value-query read path (alloc_gate_test.go): one
# solo query per method, the tiled planner and the workers=4 paths on the
# 256×256 fixture; and the live heap of that fixture opened through the facade
# (heap_gate_test.go). The files are tagged !race — the race detector changes
# allocation counts — so `make race` skips them and this target runs them plain.
alloc-gate:
	$(GO) test -run TestAllocCeilings .

# Five seconds of each of the nine native fuzz targets — six decoders of
# untrusted bytes, the engine's program harness, the refinement kernel and the
# R*-tree's ChooseSubtree: the catalog's (no panic, an accepted blob
# re-encodes byte for byte), the heap page's (no panic, the run scans' slot
# walk agrees with RecordInPage and their record test with
# CellIntervalFromRecord + Intersects on any bytes), the FWB1
# frame's (no panic, allocation bounded by the input, an encoded result
# round-trips), the FSC2 column's behind sidecar pages and wire columns (no
# panic, decode∘encode is the identity on any bit pattern), the FSM1 summary's
# behind the aggregate tier (no panic, allocation bounded by the input, an
# accepted summary re-encodes to the same bits and estimates), the HTTP tier's
# query strings and bodies (no panic, no 500, a refusal is a 400 in bounded
# allocation, an accepted number is strconv's), FuzzEngineProgram (every
# invariant of the engine after every step of a program, against a brute-force
# model), FuzzTriangleBand (the band kernel's vertices equal, bit for bit,
# those of the clip chain internal/band's tests keep verbatim, on any floats a
# reopened file may hold, NaN and ±Inf included), and FuzzChooseSubtree (the
# early-exit overlap sums pick the child the full sums internal/rstar's tests
# keep verbatim pick, on nodes of ties, empty MBRs, ±Inf and NaN bounds). A
# failing input lands in the package's testdata/fuzz — commit it with the fix.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzOpenCatalog$$' -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzEngineProgram$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime 5s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzFloatColumn$$' -fuzztime 5s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzHeapPage$$' -fuzztime 5s
	$(GO) test ./internal/approx -run '^$$' -fuzz '^FuzzSummary$$' -fuzztime 5s
	$(GO) test ./internal/band -run '^$$' -fuzz '^FuzzTriangleBand$$' -fuzztime 5s
	$(GO) test ./internal/rstar -run '^$$' -fuzz '^FuzzChooseSubtree$$' -fuzztime 5s

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

# The four line counts ROADMAP and CHANGES quote, over tracked files: non-test
# Go outside benchmark/, test Go outside benchmark/, benchmark/, and non-test
# Go in internal/core (the engine the paper's methods run on).
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l | xargs echo "non-test Go outside benchmark/:"
	@git ls-files '*_test.go' | grep -v '^benchmark/' | xargs cat | wc -l | xargs echo "test Go outside benchmark/:"
	@git ls-files 'benchmark/*.go' | xargs cat | wc -l | xargs echo "benchmark/ Go:"
	@git ls-files 'internal/core/*.go' | grep -v _test.go | xargs cat | wc -l | xargs echo "non-test Go in internal/core/:"
