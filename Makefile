GO ?= go

.PHONY: all build test short race allocs vet fmt bench benchmark-smoke fuzz agg-bench iter-bench cyclic-bench net-bench obs-bench net-smoke serve-smoke cover clean examples api-check

all: build vet test

# Build every example and run each to completion with tiny parameters
# (the smoke tests shell out to the go toolchain per example).
examples:
	$(GO) build ./examples/...
	$(GO) test ./examples -count=1

# Public-API stability gate: fail when an exported symbol of the jsweep
# package was removed relative to API_BASE (default: the PR base branch
# on CI, else the previous commit).
api-check:
	./scripts/api_check.sh $(API_BASE)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast loop: skips the example smoke tests and stress cases.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Allocation ceilings: zero per steady-state program sweep and per pooled
# message (in-memory and loopback socket), a constant per runtime round,
# the same count for every warm solve, fixed handfuls in graph and priority
# set-up. The full CI test run is -race only, and the race detector makes
# the whole-solve repeat test too slow to run, so this target runs them
# all without it (mirrors the CI step).
allocs:
	$(GO) test -run 'Allocs|AllocCeiling|AllocationsRepeat' ./internal/comm ./internal/netcomm ./internal/sweep ./internal/runtime ./internal/graph ./internal/priority

# go vet plus jsweepvet, the in-repo analyzer suite that machine-checks
# jsweep's own invariants (see DESIGN.md "Static analysis").
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/jsweepvet ./...

# Fail when any file needs gofmt (mirrors the CI gate).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# benchmark/ is its own module (replace jsweep => ../), so build/test/vet
# above never compile it: vet it and run its tests (all four workloads at
# smoke sizes) so an internal API change cannot silently break the
# pipeline's instrument (mirrors the CI step).
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Short fuzz sessions over the stream/frame codecs, the SCC condensation
# invariants and the netcomm wire format (one -fuzz target per go test
# invocation).
fuzz:
	$(GO) test ./internal/core -run xxx -fuzz FuzzCodecRoundTrip -fuzztime 30s
	$(GO) test ./internal/graph -run xxx -fuzz FuzzSCCCondense -fuzztime 30s
	$(GO) test ./internal/netcomm -run xxx -fuzz FuzzNetFrameRoundTrip -fuzztime 30s
	$(GO) test ./internal/netcomm -run xxx -fuzz FuzzSubmitLaneRoundTrip -fuzztime 30s
	$(GO) test ./internal/netcomm -run xxx -fuzz FuzzSubmitFrameRoundTrip -fuzztime 30s

# Reproduce the message-aggregation batch-size sweep (paper Fig. 12
# methodology applied to §IV batching) and record BENCH_aggregation.json.
agg-bench:
	$(GO) run ./cmd/jsweep-bench -exp agg -fidelity quick -out BENCH_aggregation.json

# Reproduce the persistent-session iteration-throughput comparison
# (ReuseRuntime on vs off over full source-iteration solves) and record
# BENCH_iteration.json.
iter-bench:
	$(GO) run ./cmd/jsweep-bench -exp iter -fidelity quick -out BENCH_iteration.json

# Reproduce the cyclic-mesh torture case (twisted rings, SCC detection +
# feedback-edge flux lagging) and record BENCH_cyclic.json.
cyclic-bench:
	$(GO) run ./cmd/jsweep-bench -exp cyclic -fidelity quick -out BENCH_cyclic.json

# Compare the in-memory, shared-memory-ring, Unix-socket and
# TCP-localhost transport backends (frames, bytes on the wire,
# per-iteration time and heap allocations, aggregation off/on) and record
# BENCH_netcomm.json.
net-bench:
	$(GO) run ./cmd/jsweep-bench -exp net -fidelity quick -out BENCH_netcomm.json

# Measure the observability layer's hot-path cost (process-default
# metric registry live vs obs.SetDefault(nil) no-op handles; both legs
# must produce bitwise identical flux) and record BENCH_obs.json.
obs-bench:
	$(GO) run ./cmd/jsweep-bench -exp obs -fidelity quick -out BENCH_obs.json

# Multi-process smoke: 4 jsweep-node OS processes on each wire flavor —
# shared-memory rings (the tier -wire auto resolves to on one host),
# Unix-domain sockets, and forced TCP — bitwise reference parity
# asserted by rank 0 (mirrors the CI job).
net-smoke:
	$(GO) build -o bin/ ./cmd/jsweep-run ./cmd/jsweep-node
	./bin/jsweep-run -backend tcp -wire shm -node-bin ./bin/jsweep-node \
		-mesh kobayashi -n 16 -sn 2 -procs 4 -workers 2 -agg -verify
	./bin/jsweep-run -backend tcp -wire uds -node-bin ./bin/jsweep-node \
		-mesh kobayashi -n 16 -sn 2 -procs 4 -workers 2 -agg -verify
	./bin/jsweep-run -backend tcp -wire tcp -node-bin ./bin/jsweep-node \
		-mesh kobayashi -n 16 -sn 2 -procs 4 -workers 2 -agg -verify

# Sweep-as-a-service smoke: real jsweep-serve daemons accept a queued
# submission from `jsweep-run -serve` and host a two-daemon tcp-launch
# placement (`-hosts`), then drain on SIGTERM (mirrors the CI job).
serve-smoke:
	./scripts/serve_smoke.sh bin

# Per-package coverage with the CI gates for the session-critical
# packages (internal/runtime, internal/sweep, internal/graph). The
# redirect (not a pipe) preserves go test's exit status under plain sh.
cover:
	$(GO) test -cover ./... > cover.out || (cat cover.out; exit 1)
	cat cover.out
	./scripts/check_coverage.sh cover.out

clean:
	$(GO) clean ./...
