# Local developer entry points, mirroring .github/workflows/ci.yml job for
# job so "works on my machine" and "works in CI" are the same commands.

GO ?= go

.PHONY: all build test loc race race-wal race-topk replay-smoke test-refs examples bench bench-json bench-check bench-harness load-smoke fmt fmt-fix lint staticcheck cross metrics-lint fuzz ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Lines of Go per package of the root module, non-test then test files, and
# their totals. benchmark/ is a module of its own and is not counted.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{"\t"}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{"\t"}}{{range .TestGoFiles}}{{$$d}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$$d}}/{{.}} {{end}}' ./... | \
		awk -F'\t' 'function lines(files, f, n, c, i, l) { n = split(files, f, " "); c = 0; for (i = 1; i <= n; i++) { while ((getline l < f[i]) > 0) c++; close(f[i]) } return c } \
			BEGIN { printf "%-28s %9s %9s\n", "package", "non-test", "test" } \
			{ s = lines($$2); t = lines($$3); S += s; T += t; printf "%-28s %9d %9d\n", $$1, s, t } \
			END { printf "%-28s %9d %9d\n", "total", S, T }'

race:
	$(GO) test -race ./...

# The write-ahead log's and the report tiers' concurrency tests, ten times
# under the race detector: appends against blocked and failing flushes,
# against rolls and seals, the server-level crash recovery under concurrent
# writers, concurrent batches, single reports and reads into one tier, and
# every report protocol's mixed-wire posters against its offline aggregate.
# The log flushes outside its mutex and a tier is one aggregate behind one
# lock, so these are what hold those two designs up.
race-wal:
	$(GO) test -race -count=10 -timeout=10m ./internal/wal
	$(GO) test -race -count=10 -timeout=10m -run 'TestWALConcurrent|TestConcurrentDurable|TestConcurrentBatchIngest|TestConcurrentSubmissions|TestConcurrentReadsDuringWrites|TestConcurrentMixedWiresMatchOffline' ./internal/collect

# The mining tier's concurrency tests, ten times under the race detector:
# posts racing a round's seal over both wires, concurrent posters sharing a
# session's pooled round deltas, kill -9 recovery of sessions mid-round, and
# the planner/partial equivalences underneath them. A session is one planner
# behind one lock with each frame folded into a delta outside it; these are
# what hold that design up.
race-topk:
	$(GO) test -race -count=10 -timeout=10m -run 'TestTopKRoundSealRace|TestTopKMixedWireHammer|TestTopK.*SurvivesRestart|TestTopKFrameCommittedAfterSeal|TestTopKPooledDeltaEveryRound' ./internal/collect
	$(GO) test -race -count=10 -timeout=10m -run 'Partial|Planner|Session' ./internal/topk

# The recovery pins — the log hands back every intact record in the order
# it was appended; WAL replay, torn tails included, against the state the
# server held live; a kill -9 log of every record type against the offline
# aggregate; a corrupt frame's skipped bytes counted and logged; every
# report protocol's kill -9 restart bit-identical to its live state — on
# their own, so a replay regression is named in the log rather than buried
# in the package list.
replay-smoke:
	$(GO) test -race -run 'TestReplayAppliesRecordsInOrder' -v ./internal/wal
	$(GO) test -race -run 'TestReplayMatchesLiveState|TestWALMixedRecordsKill9|TestWALTornBytesCounted|TestWALCrashRecoveryBitIdentical' -v ./internal/collect

# Test names cited outside the tests still name tests. Every alternative of
# every -run pattern above lists a test in its package (go test -list), so a
# renamed test cannot drop silently out of a race target; and every Test…
# name README.md or the verify skill cites is a test function in the tree or
# the prefix of one (TestParentWritten names a family).
TEST_REF_DOCS := README.md .claude/skills/verify/SKILL.md

test-refs:
	@set -f; bad=0; \
	for ref in $$(sed -nE "s/.*-run '([^']+)'.* (\.\/[^ ]+)$$/\1@\2/p" Makefile); do \
		pkg=$${ref##*@}; \
		for alt in $$(echo "$${ref%@*}" | tr '|' ' '); do \
			$(GO) test -list "$$alt" "$$pkg" | grep -q '^Test' || { echo "Makefile: -run '$$alt' lists no test in $$pkg"; bad=1; }; \
		done; \
	done; \
	for name in $$(grep -ohE '\bTest[A-Z][[:alnum:]_]*' $(TEST_REF_DOCS) | sort -u); do \
		grep -rqE "^func $$name[[:alnum:]_]*\(" --include='*_test.go' . || { echo "$$name is cited but names no test"; bad=1; }; \
	done; \
	exit $$bad

# Every program under examples/, run to completion: each is self-contained
# and exits non-zero when it fails, which fails the target.
examples:
	@set -e; for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# One iteration of every benchmark: keeps them compiling and running
# without turning the suite into a perf run.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout=20m ./...

# Snapshot the ingestion + perturbation benchmarks (the in-process frame
# apply of both report tiers, frequency reports, top-k mining rounds, the
# numeric mean tier, tenant-routed ingestion, the estimate read path and WAL
# replay) into
# BENCH_ingest.json (ns/op, B/op, allocs/op, reports/s per benchmark), at one
# and at two procs — benchsnap keys every entry on name and procs.
BENCH_SNAPSHOT := ApplyBinaryBatch|ApplyBinaryMeanBatch|TopKAbsorbFrame|CollectIngest|Perturb|TopKRound|MeanIngest|TenantRouted|EstimateRead|WALReplay|WALAppend
BENCH_SNAPSHOT_RUN = $(GO) test -run='^$$' -bench='$(BENCH_SNAPSHOT)' -benchmem -benchtime=1s -cpu 1,2 .

bench-json:
	$(BENCH_SNAPSHOT_RUN) | $(GO) run ./cmd/benchsnap -out BENCH_ingest.json

# The bench-regression gate: rerun the snapshot benchmarks and diff them
# against the committed BENCH_ingest.json, failing when anything regressed
# beyond BENCH_THRESHOLD (a fraction; 0.15 = 15%). CI overrides the
# threshold upward because its runners differ from the hardware the
# committed numbers were taken on.
BENCH_THRESHOLD ?= 0.15

bench-check:
	$(BENCH_SNAPSHOT_RUN) | \
		$(GO) run ./cmd/benchsnap -compare BENCH_ingest.json -threshold $(BENCH_THRESHOLD) -out bench-compare.txt || \
		{ cat bench-compare.txt; exit 1; }
	@cat bench-compare.txt

# The process-to-process benchmark harness (benchmark/, see BENCHMARK.json)
# is a module of its own, so `build`, `lint` and `test` above never compile
# it — yet it links against the collect.Server surface. Vet and test it
# here so a refactor that moves that surface fails before the driver runs.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The load generator as a process: one self-served run per frequency
# framework and one per other tier, over the binary wire, so every
# unary-encoding client goes through the real wire. Each run exits non-zero
# unless the server acknowledged and holds exactly the population, so this
# is the paper's evaluation through the real wire, run by something other
# than a human.
load-smoke:
	@set -e; for f in hec ptj pts ptscp; do \
		$(GO) run ./cmd/mcimload -selfserve -mode freq -framework $$f -wire binary -users 20000 -clients 4 -json; \
	done; for m in mean topk; do \
		$(GO) run ./cmd/mcimload -selfserve -mode $$m -wire binary -users 20000 -clients 4 -json; \
	done

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt-fix:
	gofmt -w .

# Report-tier state has one codec, the count table of internal/state; gob is
# left to the mining tier's ordered session records and to the one-version
# read shim for state written before tables. lint fails when any other
# non-test file imports it, so a second state codec cannot grow back.
GOB_ALLOWED := internal/core/legacy.go internal/topk/session.go internal/collect/topk.go

lint:
	$(GO) vet ./...
	@bad="$$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' ./... | \
		xargs grep -lE '^(import)?[[:space:]]*([[:alnum:]_.]+[[:space:]]+)?"encoding/gob"' | \
		sed "s|^$$PWD/||" | grep -vxF $(addprefix -e ,$(GOB_ALLOWED)))"; \
	if [ -n "$$bad" ]; then echo "encoding/gob imported outside $(GOB_ALLOWED):"; echo "$$bad"; exit 1; fi

# Vet for platforms other than the host's: Windows, where WAL segments are
# read rather than mapped (internal/wal/segment_other.go), macOS, whose mmap
# comes from the BSD half of package syscall, and Linux on arm64, which
# builds the column kernel without its AVX2 assembly
# (internal/bitvec/columns_other.go). Keeps every side of both platform
# splits compiling on an amd64-only CI.
cross:
	GOOS=windows GOARCH=amd64 $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

# Pinned so local and CI runs agree; `go run` fetches the tool on demand
# (network required on first use).
STATICCHECK_VERSION ?= 2025.1.1

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Stand up an in-process all-tier server + tenant registry, scrape their
# /metrics expositions, and fail on parse errors, naming/structure
# violations, or a missing required family (see cmd/metricslint).
metrics-lint:
	$(GO) run ./cmd/metricslint

# Short-budget runs of the wire-facing fuzz targets (-fuzz takes one
# target per invocation): the two frequency-report decoders, the binary
# batch frame decoder (both tiers), the numeric mean-report decoder, the
# aggregator-state envelope decoder behind /merge, checkpoints and WAL
# snapshots, the interactive-mining round-config/round-report codec, the
# admin-facing tenant spec parser, the count-table codec every envelope
# and logged delta carries (DecodeTableInto into a reused table against
# DecodeTable), the estimate-body appender against encoding/json on
# arbitrary float64 bit patterns, and both column kernels (scalar and AVX2)
# against the per-bit scatter.
#
# `make fuzz` runs every target in sequence; `make fuzz
# FUZZ_TARGET=FuzzDecodeBatch` runs exactly one, which is how CI fans the
# targets out over a job matrix. Targets live in ./internal/collect unless
# FUZZ_PKG_<target> says otherwise.
FUZZ_TIME ?= 10s
FUZZ_TARGETS := FuzzDecode FuzzDecodeBatch FuzzDecodeBinaryBatch FuzzDecodeMeanReport FuzzUnmarshalEnvelope FuzzRoundWire FuzzTopKBinaryBatch FuzzUnmarshalSession FuzzTenantSpec FuzzDecodeTable FuzzEstimatesJSON FuzzAddRows
FUZZ_PKG_FuzzRoundWire := ./internal/topk
FUZZ_PKG_FuzzTopKBinaryBatch := ./internal/topk
FUZZ_PKG_FuzzUnmarshalSession := ./internal/topk
FUZZ_PKG_FuzzTenantSpec := ./internal/tenant
FUZZ_PKG_FuzzDecodeTable := ./internal/state
FUZZ_PKG_FuzzAddRows := ./internal/bitvec

fuzz:
ifdef FUZZ_TARGET
	$(GO) test -run='^$$' -fuzz='^$(FUZZ_TARGET)$$' -fuzztime=$(FUZZ_TIME) $(or $(FUZZ_PKG_$(FUZZ_TARGET)),./internal/collect)
else
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(MAKE) --no-print-directory fuzz FUZZ_TARGET=$$t; \
	done
endif

ci: fmt lint staticcheck cross build race race-wal race-topk replay-smoke test-refs examples metrics-lint bench-harness load-smoke fuzz bench
