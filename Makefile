GO ?= go
FUZZTIME ?= 5s
BIN ?= bin

.PHONY: check fmt build vet lint pragmas test race racestress fuzz perfbench-test perfbench-smoke bench conformance prodlines

# Tier-1 verification: formatting + build + vet + determinism lint +
# the suppression audit + full tests + race detector over the parallel
# sharded engine + the concurrency cross-validation harness + a short
# fuzz smoke over the wire parsers, run files and flight records + the
# benchmark module's own tests.
check: fmt build vet lint pragmas test race racestress fuzz perfbench-test

# Every tracked .go file outside testdata/ must be gofmt-clean; the
# lint fixtures under testdata/ keep their deliberate layout.
fmt:
	@files="$$(git ls-files '*.go' ':!*/testdata/*')" || exit 1; \
	bad="$$(gofmt -l $$files)"; \
	if [ -n "$$bad" ]; then echo "gofmt -l lists:" >&2; echo "$$bad" >&2; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism lint: the doorsvet analyzer suite (internal/lint) over
# every package, in one sequential pass over the dependency graph.
lint: $(BIN)/doorsvet
	$(BIN)/doorsvet ./...

# Suppression audit: list every //lint:allow pragma (file:line, check,
# reason); fails when a pragma lacks its reason or names an unknown
# check.
pragmas: $(BIN)/doorsvet
	$(BIN)/doorsvet -pragmas .

# Rebuild only when the suite's sources change.
DOORSVET_SRCS := $(shell find cmd/doorsvet internal/lint -name '*.go' -not -path '*/testdata/*')

$(BIN)/doorsvet: $(DOORSVET_SRCS)
	$(GO) build -o $@ ./cmd/doorsvet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Concurrency cross-validation: two streaming campaigns run at once over
# one shared population view at MaxParallel 4 under the race detector, and
# the concurrency-bearing packages must come back clean from frozenshare,
# shardcapture and golifetime — the dynamic and static halves of the
# same claim.
racestress:
	$(GO) test -race -run 'TestRaceStress' -v .

# Short native-fuzz smoke over the wire parsers, the DNS packer against
# its reference, the datagram writers, the resolver's client-query
# path, the run files, the query-name decoder against its reference and
# the network's flight records, doomed datagrams' included (one -fuzz
# target per invocation is a go tool limitation). Raise FUZZTIME for a
# real hunt.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnpack -fuzztime=$(FUZZTIME) ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzPack -fuzztime=$(FUZZTIME) ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/packet
	$(GO) test -run='^$$' -fuzz=FuzzBuild -fuzztime=$(FUZZTIME) ./internal/packet
	$(GO) test -run='^$$' -fuzz=FuzzClientQuery -fuzztime=$(FUZZTIME) ./internal/resolver
	$(GO) test -run='^$$' -fuzz=FuzzRunFile -fuzztime=$(FUZZTIME) ./internal/scanner
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQName -fuzztime=$(FUZZTIME) ./internal/scanner
	$(GO) test -run='^$$' -fuzz=FuzzDatagramLifecycle -fuzztime=$(FUZZTIME) ./internal/netsim

# The benchmark module's own tests: perfbench is a separate module, so
# `go test ./...` above never builds it. This is the check that it still
# compiles against the root module's exported API and that its traced
# replay reproduces RunSurveyOn's Report.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Correctness smoke at workload size: one short run of each benchmark
# workload, which must end with "correct":true. That is the check of
# the recorded admitted-target counts (17,800 / 17,800 / 98,205) and of
# Report digest agreement at full workload size; perfbench-test runs
# at 30 ASes.
SMOKE_WORKLOADS := survey survey-chaos paperscale-sav

perfbench-smoke:
	@for w in $(SMOKE_WORKLOADS); do \
		last="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1)"; \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "perfbench-smoke: $$w did not report correct" >&2; exit 1 ;; esac; \
	done

# Resolver conformance: the differential suite proving the resolver
# event-for-event identical to the frozen monolith
# (internal/resolver/monolith) across the query × config × fault
# matrix, query by query and as bursts with every query in flight
# (TestConformanceBurstMatchesMonolith, selected by the TestConformance
# prefix), plus the crash-flush and retransmission-key tests, 200
# simultaneous client queries on recycled records, and queries spaced
# under the timeout that reuse one attempt record while the stale
# timeouts run, all under the race detector.
conformance:
	$(GO) test -race -run 'TestConformance|TestCrashWith|TestRetransmitNeverOverwritesPending|TestManySimultaneousClientQueries|TestAnsweredAttemptRecordIsReused' -v ./internal/resolver

# Production Go line count: non-test .go files outside testdata/ and the
# benchmark module (perfbench/), the figure tracked next to ns/op.
prodlines:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './perfbench/*' ! -path './.*' -exec cat {} + | wc -l

# Headline performance numbers (event-queue allocations, survey
# wall-clock single-shard vs sharded), recorded as BENCH_1.json.
bench:
	./scripts/bench.sh
