# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.
# Not part of `ci`: `kernel-bench` times the shipped matrix and Axpy
# kernels against the pure-Go kernels and the reference loops of
# internal/tensor/kernel_ref_test.go, and
# `edge-bench` times the edge's round floor layer by layer: the grouped
# fold against Combine, the range coder, and the Axpy kernels under both,
# and `fleet-bench` times what a sampled fleet pays per round and per
# device: the edge's combine for all rows against the invitees' rows, a
# device's model set-up, and one backbone forward pass (0 allocs/op).
# `traffic` is a review gate too: it fails when a production function
# that no standing run or example executes is missing from TRAFFIC.txt.

GO ?= go

.PHONY: all build test pins race virtual v3 bench kernel-bench edge-bench fleet-bench traffic perf-pairs bench-module bench-json bench-compare churn-smoke fleet-smoke chaos-smoke restore-smoke fuzz fmt fmt-check vet portable ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# pins runs every bit-identity pin and the Pass oracles at GOMAXPROCS 1
# and 2: a BackboneClassifier's minibatches split among
# min(GOMAXPROCS, batch) replicas, so `test`, at the host's default
# alone, meets one replica count only.
pins:
	$(GO) test -count=1 -cpu 1,2 -run 'Pinned|Replicated|Pass' ./internal/nn ./internal/nas ./internal/importance ./internal/prune ./internal/core ./internal/experiments

race:
	$(GO) test -race ./internal/core/... ./internal/transport/... ./internal/wire/... ./internal/tensor/... ./internal/aggregate/... ./internal/importance/... ./internal/nn/... ./internal/nas/... ./internal/prune/... ./internal/chaos/... ./internal/fleet/...

# virtual runs internal/core's virtual-time tests (virtual_test.go, built
# only under GOEXPERIMENT=synctest): fleet scenarios inside a synctest
# bubble, where the clock moves only when every goroutine is blocked, so
# a straggler's delay and a gather's wait are exact numbers. Five times
# each at GOMAXPROCS 1 and 2.
virtual:
	GOEXPERIMENT=synctest GOMAXPROCS=1 $(GO) test -run 'Virtual' -count=5 ./internal/core
	GOEXPERIMENT=synctest GOMAXPROCS=2 $(GO) test -run 'Virtual' -count=5 ./internal/core

# v3 runs tensor's and nn's tests built for GOAMD64=v3 (AVX2, FMA). The
# transcendental kernels and the pins assume math.Erf's Horner steps
# and every Go multiply-add round twice; Go 1.24 emits MULSD + ADDSD
# there at v3 too. A toolchain that fused them would fail here.
v3:
	GOAMD64=v3 $(GO) test ./internal/tensor ./internal/nn

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/tensor ./internal/nn ./internal/nas ./internal/wire ./internal/core ./internal/aggregate ./internal/importance

# kernel-bench measures internal/tensor's three serial kernels and Axpy/
# Axpy4 from one binary on four sides: the loops they replaced ("ref"),
# the portable pure-Go kernels ("go"), the AVX2 kernels ("avx2", AVX-512
# off) and the shipped path ("new": AVX-512 where the CPU has it, else
# AVX2), at the shapes a customization run multiplies and three
# left-operand zero patterns; one Adam step of a header's 19 844
# parameters, and GELU, GELUGrad and Exp at the run's shapes (9 × 64, a
# 9-long softmax row, 10 logits), on "go" and "new". The sides of one
# cell run back to back, so the host's drift lands on them alike.
# cmd/kernelstat passes the samples through and then tables each cell's
# median and minimum of the five per side, with go/new and avx2/new on
# both: a burst of stolen ticks moves a median, rarely a minimum. "new"
# must not be slower than "avx2", "go" or "ref" on any cell where they
# run different code.
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkAxpy|BenchmarkAdamStep|BenchmarkTranscendental' -benchtime=2000x -count=5 ./internal/tensor | $(GO) run ./cmd/kernelstat

# edge-bench measures what the edge spends on the exchange:
# BenchmarkEdgeAggregate (Combine vs the streaming combiner's tail at
# 12 × 5 120, vs its total and tail at the exchange-replay workload's
# 64 × 19 844), BenchmarkEdgeFold (one round of 12 uploads of a 12-layer
# header set through the edge's fold and combine, /dense and /delta;
# its B/op is what a round allocates once the arena, the lease pool and
# the combiner's spares are warm), BenchmarkDecodeFreshTarget (an upload
# decoded into a fresh target with one reused arena, the frame at byte
# offsets 0–3: 2 allocs/op, the target and its layer list),
# BenchmarkLeasedSend (an 80 KB upload encoded into a leased frame, sent
# and received over the memory transport and released: 0 allocs/op),
# BenchmarkEntropyCompress/Expand, and BenchmarkAxpy (one Axpy pass and
# one four-source pass at 19 844 and 32 elements).
edge-bench:
	$(GO) test -run '^$$' -bench 'EdgeAggregate|EdgeFold|DecodeFreshTarget|LeasedSend|Entropy|Axpy' -benchmem -count=5 ./internal/aggregate ./internal/core ./internal/wire ./internal/tensor

# fleet-bench measures the four costs the fleet-sampled workload scales
# with: BenchmarkEdgeAggregate/sampled-10of100x19844 (one round of 100
# uploads, all 100 rows of Eq. 21 vs the 10 that get a downlink),
# BenchmarkBuildDeviceHeader (package → model, per device: /decode for a
# device that decodes its backbone, /holder for a shared shard's
# non-owner, which builds the header only), BenchmarkDeviceRound (one
# steady-state round of an invited device, /dense and /delta-mixed; none
# of its allocs/op is per parameter, and TestSteadyDeviceRoundAllocates
# bounds them at GOMAXPROCS 1) and BenchmarkBackboneForward (per sample;
# must report 0 allocs/op).
fleet-bench:
	$(GO) test -run '^$$' -bench 'EdgeAggregate/sampled|BuildDeviceHeader|DeviceRound|BackboneForward' -benchmem -count=5 ./internal/aggregate ./internal/core ./internal/nn

# traffic (~4 min on 2 vCPUs) builds the standing benchmark (bench/, as
# checked in), acmebench, acmesim and every examples/ program with
# coverage of every acme package into the git-ignored .traffic_build/,
# runs the four workloads (5 s each), every paper experiment at one
# seed, the trajectory (table only), a default acmesim and the examples,
# and lists the production functions none of them executed (0.0 % in
# `go tool covdata func`, acme/bench excluded) as `file: function` in
# .traffic_build/traffic.txt. It records the trajectory's cells without
# judging them: its cross-cell gates (the checkpoint tax is a wall-clock
# ratio) are bench-json's, and a covered binary writes its counters on
# exit, so a cell that stops the run early still shows up below as the
# functions it left unexecuted. It is a gate against TRAFFIC.txt, the
# checked-in list, whose every line is `file: function  # class` with a
# class from the closed list in traffic_test.go (TestTrafficList, run
# first, checks the form): it prints the functions added to the list
# and removed from it, and fails on any addition. Refresh TRAFFIC.txt
# from the union of three runs' lists, so that a function only some
# runs reach cannot fail it, and give every new line its class.
# Not part of `ci`: the list assumes a CPU with AVX2, with or without
# AVX-512. Both SIMD tiers run behind the same Go wrappers and coverage
# counts no assembly, so the two give one list; without AVX2 the Go
# kernels it lists run and the wrappers do not.
TRAFFIC := $(CURDIR)/.traffic_build
EXAMPLES := quickstart heterogeneous_devices noniid_personalization tcp_cluster
traffic:
	$(GO) test -count=1 -run '^TestTrafficList$$' .
	rm -rf $(TRAFFIC) && mkdir -p $(TRAFFIC)/cov
	$(GO) build -C bench -cover -coverpkg=acme/... -o $(TRAFFIC)/acme-bench .
	$(GO) build -cover -coverpkg=acme/... -o $(TRAFFIC)/acmebench ./cmd/acmebench
	$(GO) build -cover -coverpkg=acme/... -o $(TRAFFIC)/acmesim ./cmd/acmesim
	for e in $(EXAMPLES); do \
		$(GO) build -cover -coverpkg=acme/... -o $(TRAFFIC)/example-$$e ./examples/$$e || exit 1; \
	done
	for w in customize-dense customize-shaped-tcp fleet-sampled exchange-replay; do \
		GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/acme-bench -workload $$w -trace 0 -seconds 5 >/dev/null || exit 1; \
	done
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/acmebench -exp all -seeds 1 >/dev/null
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/acmebench -exp trajectory >/dev/null || \
		echo "traffic: the trajectory's cross-cell gates failed (recorded here, judged by bench-json)"
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/acmesim >/dev/null
	for e in $(EXAMPLES); do \
		GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/example-$$e >/dev/null || exit 1; \
	done
	$(GO) tool covdata func -i $(TRAFFIC)/cov | \
		awk '$$NF == "0.0%" && $$1 !~ /^acme\/bench\// { f = $$1; sub(/^acme\//, "", f); sub(/:[0-9]+:$$/, "", f); print f ": " $$2 }' | \
		LC_ALL=C sort -u > $(TRAFFIC)/traffic.txt
	@sed 's/  # .*//' TRAFFIC.txt | LC_ALL=C sort -u > $(TRAFFIC)/want.txt; \
	added=$$(LC_ALL=C comm -13 $(TRAFFIC)/want.txt $(TRAFFIC)/traffic.txt); \
	removed=$$(LC_ALL=C comm -23 $(TRAFFIC)/want.txt $(TRAFFIC)/traffic.txt); \
	echo "traffic: $$(wc -l < $(TRAFFIC)/traffic.txt) production functions with no traffic, TRAFFIC.txt lists $$(wc -l < $(TRAFFIC)/want.txt)"; \
	if [ -n "$$removed" ]; then echo "removed (now executed or deleted):"; echo "$$removed" | sed 's/^/  /'; fi; \
	if [ -n "$$added" ]; then echo "added (no run executes them):" >&2; echo "$$added" | sed 's/^/  /' >&2; exit 1; fi

# perf-pairs (ROADMAP item 9) judges a performance claim: it builds
# bench/ at BASE (from `git archive`) and at the working tree into the
# git-ignored .perfpairs/, runs PAIRS alternating pairs of every workload
# (WORKLOADS, comma-separated, to narrow it; seeds from FIRST), and
# writes PERF_53.json: per-pair values, medians, the base's quartiles,
# pairs won and a verdict per end-to-end metric. Met means better in
# ≥ 9 of 10 pairs with a median gap past the base's interquartile range.
# It refuses to report when bytes or accuracy differ within a pair.
BASE ?= HEAD
PAIRS ?= 10
FIRST ?= 11
WORKLOADS ?=
perf-pairs:
	$(GO) run ./cmd/perfpairs -base $(BASE) -pairs $(PAIRS) -first $(FIRST) -workloads "$(WORKLOADS)" -out PERF_53.json

# bench-module vets and tests the standing benchmark, a module of its
# own (bench/go.mod) that `go build ./... && go test ./...` never
# compiles: a change that breaks an exported call it uses fails here
# instead of at benchmark time.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-json regenerates the trajectory (~2½ min): 51 cells — wire
# shapes, TCP, straggler cutoff, fleet sampling, entropy coding, top-K,
# the adversarial matrix, edge and device kill/restore, the checkpoint
# tax — run once each from internal/experiments' cell table, with the
# gate table benchcmp reads. The older BENCH_*.json files stay as the record;
# nothing regenerates them.
bench-json:
	$(GO) run ./cmd/acmebench -exp trajectory -json BENCH_27.json

# bench-compare diffs the two newest checked-in BENCH_*.json files and
# fails on any gated regression (>10% wire bytes, 5 points of TPR/FPR,
# the checkpoint-tax ceiling).
bench-compare:
	$(GO) run ./cmd/benchcmp

# churn-smoke kills one device mid-run over loopback TCP and rejoins it
# via the dense-resync control path, asserting the run completes with
# every device reporting and the exchange back to sparse deltas. The
# 20-iteration stress loop guards the rejoin path's timing races. The
# test paces its cluster with an injected straggler, and the TCP link
# drops a dead predecessor's late LEAVE; what still reads the wall clock
# is ROADMAP item 16's (virtual time).
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
# every round invites exactly the sampled count and all devices report,
# and pins a 12-device shared-shard fleet's reports and per-kind bytes.
fleet-smoke:
	$(GO) test -run 'TestFleetSmoke|TestSharedShardFleetPinned' -count=1 -v ./internal/core

# restore-smoke kills an edge mid-loop over loopback TCP (sockets torn
# down), restarts it on the same address, and restores it from its
# durable checkpoint — asserting the finished run's reports are
# bitwise-identical to the same seeded run left uninterrupted.
restore-smoke:
	$(GO) test -run 'TestRestoreSmokeTCP' -count=1 -v -timeout 600s ./internal/core

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecords -fuzztime=20s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=20s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzKernels -fuzztime=20s ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzTranscendentals -fuzztime=20s ./internal/tensor

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# portable compiles the !amd64 side of internal/tensor (the pure-Go
# kernels alone, simd_other.go), which an amd64 build never sees.
portable:
	GOARCH=arm64 $(GO) vet ./internal/tensor && GOARCH=arm64 $(GO) build ./...

ci: fmt-check vet build portable test pins v3 race virtual fuzz bench bench-module bench-compare churn-smoke fleet-smoke chaos-smoke restore-smoke
