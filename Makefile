# Standard development targets. Stdlib-only module; no network needed.

GO ?= go

.PHONY: all build bench-vet test race bench bench-json bench-diff bench-delta bench-cluster cluster-soak repro fmt vet lint lint-sarif obs-smoke trace-smoke serve-smoke graph-smoke fuzz-short check clean

all: check

build:
	$(GO) build ./...

# bench-vet type-checks the benchmark harness, a nested module that
# `go build ./...` skips: a symbol it uses that this module drops fails
# here rather than when the benchmark runs. Its only dependency is this
# module (replace ebda => ../), so it works offline and writes nothing.
bench-vet:
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# Write the perf snapshot (per-experiment wall time, CDG channels/sec).
bench-json:
	$(GO) run ./cmd/ebda-repro -quick -benchjson BENCH_verify.json

# Compare the committed snapshot against a fresh one; fails on >20%
# wall-time regression. Usage: make bench-diff [OLD=BENCH_verify.json]
OLD ?= BENCH_verify.json
bench-diff:
	$(GO) run ./cmd/ebda-repro -quick -benchjson BENCH_new.json
	$(GO) run ./cmd/ebda-benchdiff $(OLD) BENCH_new.json

# Measure incremental (delta) verification against from-scratch verifies
# — every diff is equivalence-checked before timing — and hold the fresh
# snapshot against the committed one. The single-link case must stay at
# or below 5% of full-verify cost (ebda-benchdiff's -delta-ratio gate).
OLD_DELTA ?= BENCH_delta.json
bench-delta:
	$(GO) run ./cmd/ebda-deltabench -out BENCH_delta_new.json
	$(GO) run ./cmd/ebda-benchdiff $(OLD_DELTA) BENCH_delta_new.json

# Drive the in-process replica cluster through the shard ring (-smoke:
# zero 5xx, peer and forward paths exercised, byte-identical verdicts
# from every replica, snapshot warm starts answer from cache, scaling
# at or above 0.75x per replica), write a fresh cluster snapshot and
# hold it against the committed one (ebda-benchdiff's -cluster-scaling
# gate: a 4-replica run must reach 3.0x).
OLD_CLUSTER ?= BENCH_cluster.json
bench-cluster:
	$(GO) run ./cmd/ebda-loadgen -cluster -replicas 4 -smoke -out BENCH_cluster_new.json
	$(GO) run ./cmd/ebda-benchdiff $(OLD_CLUSTER) BENCH_cluster_new.json

# cluster-soak is bench-cluster's race-detector twin: the same 4-replica
# smoke run compiled with -race, gating only the invariants (the race
# build's walls still clear the relative scaling floor because baseline
# and phases slow down together).
cluster-soak:
	$(GO) run -race ./cmd/ebda-loadgen -cluster -replicas 4 -smoke -out /dev/null

# Regenerate every table and figure of the paper (paper-vs-measured).
repro:
	$(GO) run ./cmd/ebda-repro -details

fmt:
	gofmt -l -w .

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

# obs-smoke runs the same deterministic verification twice with -obs-json
# and asserts the dumps parse, carry the required engine series, and are
# byte-identical after canonicalisation (timing fields zeroed).
obs-smoke:
	$(GO) run ./cmd/ebda-obssmoke

# trace-smoke pins the tracing determinism contract: two identical
# sampled runs on fresh in-process replicas must render byte-identical
# canonical span trees (names, nesting, attributes — IDs and timings
# stripped).
trace-smoke:
	$(GO) run ./cmd/ebda-obssmoke -trace

# serve-smoke starts ebda-serve on a loopback port, drives the fixed
# seeded loadgen workload against it (-smoke: zero 5xx, >=1 coalesced
# request, byte-identical verdicts for repeated identical requests,
# invalid requests rejected with 4xx), then SIGTERMs the server and
# requires a clean graceful drain. The loadgen snapshot goes to a
# temporary file; refresh the committed one with
# `OUT=BENCH_serve.json make serve-smoke`.
serve-smoke:
	GO="$(GO)" ./scripts/serve-smoke.sh

# graph-smoke drives the built ebda-graph binary over the committed
# testdata/graphio goldens in all four modes (loop, liveness, escape,
# subrel), asserting the exact verdict lines and exit codes plus a
# byte-stable text -> JSON -> text export round-trip.
graph-smoke:
	GO="$(GO)" ./scripts/graph-smoke.sh

# fuzz-short gives the untrusted-input parsers — the /v1 request
# decoder, the graphio CDG parser and the verify-cache snapshot loader —
# a brief native-fuzz shake on every check; the seeded corpus alone
# regresses in milliseconds, the 5s budget lets the mutator explore a
# little too.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeVerifyRequest -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzParseCDG -fuzztime=5s ./internal/graphio
	$(GO) test -run='^$$' -fuzz=FuzzLoadSnapshot -fuzztime=5s ./internal/cdg

# race is part of check so the worker pools are race-tested routinely;
# obs-smoke keeps the -obs-json determinism contract honest; trace-smoke
# does the same for request traces; serve-smoke and fuzz-short guard the
# HTTP serving layer end to end; graph-smoke pins the arbitrary-network
# CLI's verdicts over the committed goldens.
check: build bench-vet lint test race obs-smoke trace-smoke serve-smoke graph-smoke fuzz-short

clean:
	$(GO) clean ./...
