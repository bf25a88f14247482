# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.
# Not part of `ci`: `kernel-bench` times the shipped matrix kernels
# against the reference loops of internal/tensor/kernel_ref_test.go, and
# `edge-bench` times the edge's round floor layer by layer: the grouped
# fold against Combine, the range coder, and the Axpy kernels under both,
# and `fleet-bench` times what a sampled fleet pays per round and per
# device: the edge's combine for all rows against the invitees' rows, a
# device's model set-up, and one backbone forward pass (0 allocs/op).

GO ?= go

.PHONY: all build test race bench kernel-bench edge-bench fleet-bench bench-module bench-json bench-compare churn-smoke fleet-smoke chaos-smoke restore-smoke fuzz fmt fmt-check vet ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/transport/... ./internal/wire/... ./internal/tensor/... ./internal/aggregate/... ./internal/importance/...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/tensor ./internal/nn ./internal/nas ./internal/wire ./internal/core ./internal/aggregate ./internal/importance

# kernel-bench measures internal/tensor's three serial kernels ("new")
# against the loops they replaced ("ref") from one binary, at the shapes
# a customization run multiplies and three left-operand zero patterns.
# The shipped kernel must not be slower on any cell.
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchtime=2000x -count=5 ./internal/tensor

# edge-bench measures what the exchange-replay workload spends its CPU
# on: BenchmarkEdgeAggregate (Combine vs the streaming combiner's tail
# at 12 × 5 120, vs its total and tail at the replay's 64 × 19 844),
# BenchmarkEntropyCompress/Expand, and BenchmarkAxpy (one Axpy pass and
# one four-source pass at 19 844 and 32 elements).
edge-bench:
	$(GO) test -run '^$$' -bench 'EdgeAggregate|Entropy|Axpy' -count=5 ./internal/aggregate ./internal/wire ./internal/tensor

# fleet-bench measures the three costs the fleet-sampled workload scales
# with: BenchmarkEdgeAggregate/sampled-10of100x19844 (one round of 100
# uploads, all 100 rows of Eq. 21 vs the 10 that get a downlink),
# BenchmarkBuildDeviceHeader (package → model, per device) and
# BenchmarkBackboneForward (per sample; must report 0 allocs/op).
fleet-bench:
	$(GO) test -run '^$$' -bench 'EdgeAggregate/sampled|BuildDeviceHeader|BackboneForward' -benchmem -count=5 ./internal/aggregate ./internal/core ./internal/nn

# bench-module vets and tests the standing benchmark, a module of its
# own (bench/go.mod) that `go build ./... && go test ./...` never
# compiles: a change that breaks an exported call it uses fails here
# instead of at benchmark time.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-json regenerates the trajectory (~2½ min): the 46 cells PRs 3…10
# added one generator at a time — wire shapes, TCP, straggler cutoff,
# fleet sampling, entropy coding, the adversarial matrix, kill/restore,
# the checkpoint tax — run once each from internal/experiments' cell
# table, with the gate table benchcmp reads (PR 10's two scheduler cells
# were retired with the scheduler in PR 24). BENCH_3…23.json stay as the
# record; nothing regenerates them.
bench-json:
	$(GO) run ./cmd/acmebench -exp trajectory -json BENCH_24.json

# bench-compare diffs the two newest checked-in BENCH_*.json files and
# fails on any gated regression (>10% wire bytes, 5 points of TPR/FPR,
# the checkpoint-tax ceiling).
bench-compare:
	$(GO) run ./cmd/benchcmp

# churn-smoke kills one device mid-run over loopback TCP and rejoins it
# via the dense-resync control path, asserting the run completes with
# every device reporting and the exchange back to sparse deltas. The
# 20-iteration stress loop guards the rejoin path's timing races (the
# flake fixed in PR 8 only reproduced once in tens of runs).
churn-smoke:
	$(GO) test -run 'TestChurnRejoinTCP' -count=20 -failfast -timeout 1200s ./internal/core

# chaos-smoke runs one adversarial trial over loopback TCP: seeded link
# chaos on every device link, one inflating device, detection armed —
# asserting the liar is flagged, evicted via MEMBER-GONE, and the run
# completes with every honest device reporting.
chaos-smoke:
	$(GO) test -run 'TestByzantineDetectTCP' -count=1 -v ./internal/core

# fleet-smoke runs a 2000-device fleet (8 edges × 250 devices, shared
# read-only data shards) in one process at -sample-frac 0.05, asserting
# every round invites exactly the sampled count and all devices report.
fleet-smoke:
	$(GO) test -run 'TestFleetSmoke' -count=1 -v ./internal/core

# restore-smoke kills an edge mid-loop over loopback TCP (sockets torn
# down), restarts it on the same address, and restores it from its
# durable checkpoint — asserting the finished run's reports are
# bitwise-identical to the same seeded run left uninterrupted.
restore-smoke:
	$(GO) test -run 'TestRestoreSmokeTCP' -count=1 -v -timeout 600s ./internal/core

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=20s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/checkpoint

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt-check vet build test race bench bench-module bench-compare churn-smoke fleet-smoke chaos-smoke restore-smoke
