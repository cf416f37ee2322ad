# Standard development targets. Stdlib-only module; no network needed.

GO ?= go

.PHONY: all build bench-vet bench-test test race bench bench-smoke bench-cold bench-delta repro fmt fmt-check vet lint lint-sarif fuzz-short check clean

all: check

build:
	$(GO) build ./...

# bench-vet type-checks the benchmark harness, a nested module that
# `go build ./...` skips: a symbol it uses that this module drops fails
# here rather than when the benchmark runs. Its only dependency is this
# module (replace ebda => ../), so it works offline and writes nothing.
bench-vet:
	cd bench && $(GO) vet ./...

# bench-test runs the benchmark harness's own tests (-short: about 5 s on
# 2 vCPUs), among them TestRequestsPassServerDecoders (every generated
# body passes the server's decoders) and TestOracleRejectsWrongVerdicts.
# A serving change that breaks what bench/ sends or checks fails here,
# not when the benchmark runs.
bench-test:
	cd bench && $(GO) test -short ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke runs every Go benchmark in the module once. The timings
# mean nothing at one iteration; the point is the result checks inside
# the benchmarks (b.Fatalf on a wrong verdict or experiment mismatch),
# which no other target runs. Performance itself is measured end to end
# by bench/ (bash bench/run.sh) and in process by bench and bench-cold.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Time the cold verification path: binding a graph to never-seen networks
# and whole cold verifies through a pool (internal/cdg), then the turn-edge
# kernel on one warm workspace (root package). Not part of check.
bench-cold:
	$(GO) test -run '^$$' -bench 'BenchmarkBind|BenchmarkVerifyColdShapes' -benchmem ./internal/cdg
	$(GO) test -run '^$$' -bench 'BenchmarkTurnEdges' -benchmem .

# Gate incremental (delta) verification: TestDeltaLinkRatio checks every
# single-link diff of the 8x8-mesh north-last design against a
# from-scratch verify, then requires the timed diffs to take the
# incremental path at or below 5% of full-verify cost. `go test ./...`
# runs the same test; this target runs it alone, verbosely, for the
# measured ratio.
bench-delta:
	$(GO) test -count=1 -run '^TestDeltaLinkRatio$$' -v ./internal/cdg

# Regenerate every table and figure of the paper (paper-vs-measured).
repro:
	$(GO) run ./cmd/ebda-repro -details

fmt:
	gofmt -l -w .

# fmt-check fails when a tracked Go file is not gofmt-clean. It scans
# git's file list, so build output such as .bench_build/ stays out.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint = go vet + the repo's own analyzer suite (detlint, locklint,
# hotpath, verifygate, deadlint, ctxlint); see CONTRIBUTING.md for the
# invariants each analyzer enforces and the //ebda:allow escape hatch.
# lint.baseline suppresses inherited findings, so the gate fails only on
# NEW diagnostics; lint-sarif additionally writes lint.sarif for upload
# to code-scanning UIs.
lint: vet
	$(GO) run ./cmd/ebda-lint -baseline lint.baseline ./...

lint-sarif: vet
	$(GO) run ./cmd/ebda-lint -baseline lint.baseline -sarif lint.sarif ./...

# fuzz-short gives the untrusted-input parsers — the /v1 verify, delta
# and graph request decoders (the graph decoder differentially, against
# encoding/json + the strings-based text parser it replaced), peer-lookup and forwarded answers from an owner
# replica, the X-Ebda-Trace header, the graphio CDG parser, the
# verify-cache snapshot loader, the channel-class parser (held to its
# grammar) and the partition-chain parser (differentially, against the
# fmt.Sscanf-based class parser it replaced) — a brief native-fuzz shake
# on every check; the seeded corpus alone regresses in milliseconds, the
# 5s budget lets the mutator explore a little too. FuzzQuotientSound
# holds the size-free quotient verdict against the concrete CDG on
# fuzzer-drawn designs, meshes and tori (a torus's whole report, cycle
# witness included).
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeVerifyRequest -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDeltaRequest -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeGraphRequest -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzPeerLookupResponse -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzParseHeader -fuzztime=5s ./internal/obs/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseCDG -fuzztime=5s ./internal/graphio
	$(GO) test -run='^$$' -fuzz=FuzzLoadSnapshot -fuzztime=5s ./internal/cdg
	$(GO) test -run='^$$' -fuzz=FuzzQuotientSound -fuzztime=5s ./internal/cdg
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/channel
	$(GO) test -run='^$$' -fuzz=FuzzParseChain -fuzztime=5s ./internal/core

# fmt-check keeps every tracked Go file gofmt-clean;
# bench-vet type-checks the bench/ harness against this tree and
# bench-test runs its tests;
# race is part of check so the worker pools and the replica cluster are
# race-tested routinely; test and race also run the serving gate
# (TestServeSmoke), the replica-cluster soak (TestClusterSoak), the
# process drain check (cmd/ebda-serve TestRunDrainsOnSIGTERM), the delta
# gate (TestDeltaLinkRatio, equivalence only under -race), the -obs-json
# and trace determinism contracts (cmd/ebda-verify
# TestObsJSONDeterministic, internal/serve TestTraceDeterministic) and
# the CLI goldens under testdata/cli (every ebda-verify mode, ebda-repro
# -table/-fig); bench-smoke runs each benchmark's result checks once;
# fuzz-short shakes the untrusted inputs and the quotient's soundness.
check: fmt-check build bench-vet bench-test lint test race bench-smoke fuzz-short

clean:
	$(GO) clean ./...
