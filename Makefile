GO ?= go

.PHONY: build test race lint bench profile record serve all

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# lint runs the simulator-specific analyzers (atomicmix, ctxflow,
# lockorder, mapiter, rngsource, stagecommit, statsdiscipline,
# tickpurity), then go vet. Any finding fails, a //simlint:ignore that
# covers nothing included.
lint:
	$(GO) run ./cmd/simlint ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# profile runs a representative clogging workload under the CPU and
# heap profilers; inspect with `go tool pprof cpu.prof` (or heap.prof).
profile:
	$(GO) run ./cmd/delrepsim -gpu NN -cpu vips -scheme delegated \
		-warm 5000 -cycles 20000 -cpuprofile cpu.prof -memprofile heap.prof
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
