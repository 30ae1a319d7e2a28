GO ?= go
GOFMT ?= gofmt
# Per-target budget for `make fuzz`. The native fuzzer accepts only one
# -fuzz pattern per invocation, hence the loop.
FUZZTIME ?= 30s
FUZZ_TARGETS := FuzzMMIORead FuzzConvertRoundTrip FuzzSELLSlices FuzzJDSPerm FuzzWireDecodePanel FuzzWireEncodeVector

.PHONY: check fmt build test bench-check race vet fuzz fuzz-smoke serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is its own module (own go.mod), so `go build ./... && go test
# ./...` at the root never compiles it: an internal/... API change can break
# the benchmark with everything else green. This vets it and runs its short
# tests against the working tree.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

race:
	$(GO) test -race ./internal/server/... ./internal/wire/... ./internal/convcache/... ./internal/cluster/... ./internal/core/... ./internal/trainer/... ./internal/timing/... ./internal/obs/... ./internal/parallel/... ./internal/sparse/... ./internal/vec/... ./internal/features/... ./internal/arima/... ./internal/gbt/... ./internal/apps/... ./internal/check/... ./internal/matgen/... ./internal/mmio/...

# kernels_stub.go compiles only under -tags noasm, so the second pass is the
# only vet it gets.
vet:
	$(GO) vet ./...
	$(GO) vet -tags noasm ./...

# gofmt -l names every file whose formatting differs; the gate wants none.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# CI's first step as one command, in this order: an internal/... API change
# that breaks benchmark/'s compile surface fails here before it fails there.
check: fmt build vet test bench-check race

# Mutational fuzzing, $(FUZZTIME) per target (override: make fuzz FUZZTIME=5m).
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "=== $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/check/ -run "^$$t$$" -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Replay the checked-in seed corpora only (fast, deterministic; what CI runs).
fuzz-smoke:
	$(GO) test ./internal/check/ -run '^Fuzz' -count=1

serve:
	$(GO) run ./cmd/ocsd -train

clean:
	$(GO) clean ./...
