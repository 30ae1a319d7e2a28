GO ?= go
GOFMT ?= gofmt
# Per-target budget for `make fuzz`. The native fuzzer accepts only one
# -fuzz pattern per invocation, hence the loop.
FUZZTIME ?= 30s
FUZZ_TARGETS := FuzzMMIORead FuzzConvertRoundTrip FuzzSELLSlices FuzzWireDecodePanel FuzzWireEncodeVector FuzzParseFloat FuzzWireWindow FuzzFormatFloat FuzzMaterializeCSR

.PHONY: check fmt build test bench-check race vet noasm fuzz fuzz-smoke serve clean

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

# Every package but two, so a new package is raced without being named here.
# internal/experiments (23 s without -race) and internal/solversel (5.5 s)
# run the paper's experiment drivers end to end, which the race detector
# stretches several-fold; the packages they drive are raced by their own tests.
RACE_PKGS = $(shell $(GO) list ./... | grep -vE '/internal/(experiments|solversel)$$')

race:
	$(GO) test -race $(RACE_PKGS)

# kernels_stub.go compiles only under -tags noasm, so the second pass is the
# only vet it gets.
vet:
	$(GO) vet ./...
	$(GO) vet -tags noasm ./...

# The pure-Go kernels: -tags noasm compiles the assembly out, so these
# packages' tests run the generic range bodies the SpMV driver dispatches to
# (the amd64 default runs the AVX2 twins). `make check`, and so CI, runs it.
noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./internal/sparse/ ./internal/parallel/ ./internal/check/ ./internal/apps/ ./internal/core/ ./internal/trainer/ .

# gofmt -l names every file whose formatting differs; the gate wants none.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# CI's first step as one command, in this order: an internal/... API change
# that breaks benchmark/'s compile surface fails here before it fails there.
check: fmt build vet test noasm bench-check race

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
