GO ?= go

.PHONY: build test race lint bench-check bench pairs profile record serve all

all: build test lint bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# lint runs go vet, then the seven simulator-specific analyzers
# (atomicmix, ctxflow, lockorder, mapiter, rngsource, statsdiscipline,
# tickpurity). Any finding fails, a //simlint:ignore that covers nothing
# included.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/simlint ./...

# bench-check vets, builds and unit-tests the benchmark module (its own
# go.mod, so `go build ./...` and `go test ./...` never reach it): a
# renamed or removed exported name it compiles against fails here, not
# only in CI. -short skips its end-to-end smoke runs.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) build -o /dev/null . && $(GO) test -short .

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# pairs is the counting rule as one command: N pairs of one workload on
# seeds SEED, SEED+1, …, BASE (a git revision) against the working
# tree's tracked files, each exported into .bench_build/pairs and built
# once by its own benchmark/run.sh, the side that runs first
# alternating; cmd/benchpairs reduces the 2N results to PAIRS_OUT.
#   make pairs BASE=HEAD~1 WORKLOAD=serve SEED=5601 N=10 PAIRS_OUT=BENCH_prN.pairs.json
BASE ?= HEAD
WORKLOAD ?= serve
SEED ?= 1
N ?= 10
PAIRS_OUT ?= .bench_build/pairs/pairs.json
pairs:
	set -e; d=$(CURDIR)/.bench_build/pairs; rm -rf $$d; mkdir -p $$d/base $$d/change $$d/runs; \
	git archive $(BASE) | tar -x -C $$d/base; \
	rev=$$(git stash create); git archive $${rev:-HEAD} | tar -x -C $$d/change; \
	for side in base change; do bash $$d/$$side/benchmark/run.sh -h 2>/dev/null; done; \
	files=; for i in $$(seq 0 $$(($(N) - 1))); do \
		order="base change"; [ $$((i % 2)) = 1 ] && order="change base"; \
		for side in $$order; do \
			bash $$d/$$side/benchmark/run.sh --workload $(WORKLOAD) -seed $$(($(SEED) + i)) -out $$d/runs/$$side-$$i.json; \
		done; \
		files="$$files $$d/runs/base-$$i.json $$d/runs/change-$$i.json"; \
	done; \
	$(GO) run ./cmd/benchpairs -bench BENCHMARK.json -out $(PAIRS_OUT) $$files

# profile runs the clogged spec sim-serial leads with (HS+vips baseline
# mesh: memory nodes blocked on full reply buffers) under the CPU and
# heap profilers, uncached (a cache hit would profile nothing); inspect
# with `go tool pprof cpu.prof` (or heap.prof).
profile:
	$(GO) run ./cmd/delrepsim -gpu HS -cpu vips -scheme baseline -topo mesh \
		-warm 5000 -cycles 20000 -cache off -cpuprofile cpu.prof -memprofile heap.prof
	@echo "wrote cpu.prof and heap.prof; inspect with: go tool pprof cpu.prof"

# serve starts the simulation daemon on :8080 against the per-user
# result cache (see README "Serving simulations").
serve:
	$(GO) run ./cmd/delrepd -addr :8080

# record refreshes the checked-in quick-windows evaluation record
# (parallel, cached; stdout is byte-identical at any -j value, and
# `go test ./internal/experiment` holds every figure to it). The new
# record replaces the old only when expdriver exits 0 and no claim
# reads FAIL; otherwise the failing lines are printed and
# experiments_output.txt is left as it was.
record:
	@tmp=experiments_output.txt.new; trap 'rm -f $$tmp' EXIT; \
	$(GO) run ./cmd/expdriver -quick -j $$(nproc) all > $$tmp || { \
		echo "record: expdriver failed; experiments_output.txt unchanged" >&2; exit 1; }; \
	if grep 'FAIL]' $$tmp; then \
		echo "record: the claims above FAIL; experiments_output.txt unchanged" >&2; exit 1; fi; \
	mv $$tmp experiments_output.txt
