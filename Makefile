GO ?= go

.PHONY: build test race lint bench-check bench profile record serve all

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
# `go test ./internal/experiment` holds every figure to it).
record:
	$(GO) run ./cmd/expdriver -quick -j $$(nproc) all > experiments_output.txt
