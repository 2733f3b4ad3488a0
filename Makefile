GO ?= go

.PHONY: build test check lint sdpvet vet-json race identity portfolio-race cover bench bench-baseline bench-allocs benchdiff fuzz-smoke eco integration clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails when any file needs gofmt or go vet flags an issue. The
# arm64 vet compiles and checks the build without the amd64 assembly
# kernels (internal/linalg/dot_noasm.go), which CI's amd64 runners would
# otherwise never build.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# sdpvet runs the repo's custom static analyzer (cmd/sdpvet): determinism,
# cancellation, parallel-safety, resource, telemetry, and durability
# invariants the compiler and -race cannot check. See docs/LINTING.md for
# the analyzer catalogue and the //sdpvet:ignore escape hatch.
sdpvet:
	$(GO) run ./cmd/sdpvet ./...

# vet-json prints sdpvet findings as a JSON array for editor and tooling
# integration; exit status is the same as `make sdpvet`.
vet-json:
	$(GO) run ./cmd/sdpvet -json ./...

# check is the gate CI and pre-commit should run: formatting, static
# analysis (go vet + sdpvet), then the suite under the race detector.
# -short skips the multi-minute paper-table reproductions (single-threaded
# solver runs that the race detector slows ~15x without adding coverage);
# run `make test` for those. The explicit -timeout replaces go test's
# 10-minute default, which the root package exceeds under -race on a
# 2-vCPU host (639 s measured, TestECODifferentialADMM alone 446-756 s).
check: lint sdpvet
	$(GO) test -race -shuffle=on -short -timeout 30m ./...

race:
	$(GO) test -race -shuffle=on -short -timeout 30m ./...

# identity runs the bitwise pins: the values-only λmin against the full
# eigendecomposition, the Cholesky factor's bits, the Schur complement and
# direction right-hand side bits, the sha256 of the n10 SDP Place trace
# plus its HPWL bits, a fixed-α convex iteration that the stall exit must
# leave untouched, and the legalizer's rects and HPWL bits on the builtin
# n10 and n30 with and without its fallback, the packed SSE2 dot kernels
# against their scalar references, the AVX Cholesky kernels and the
# factor they give against the portable path, the annealer's results on
# the n10 and n30 (it decides the n30's layout as the legalizer's last
# resort), the HPWL evaluator against Netlist.HPWL and its SSE2 kernel
# against its Go loop, the analytic placer's centers and HPWL on the n10
# and n30, the packed AVX2 exp and log kernels against math.Exp and
# math.Log, and the LSE wirelength evaluator against the two scalar
# evaluators it replaced. Every pin was captured before
# the kernels it guards were last rewritten, so an optimization that
# changes a single output bit fails a named test here instead of surfacing
# as HPWL drift in the end-to-end benchmark. No -race: the pins check
# values, not scheduling.
identity:
	$(GO) test -count=1 -run '^(TestMinEigenvalueMatchesFactor|TestCholeskyGoldenBits|TestFormSchurGoldenBits|TestPlaceTraceGolden|TestFixedAlphaIgnoresStall|TestLegalizeGolden|TestDotKernelsMatchScalar|TestTileKernelsMatchScalar|TestCholeskyTilesMatchPortable|TestSolveGolden|TestHPWLEvalMatchesHPWL|TestHPWLKernelMatchesGo|TestAnalyticGolden|TestExpKernelMatchesMath|TestLogKernelMatchesMath|TestLSEEvalMatchesReference)$$' . ./internal/linalg ./internal/sdp ./internal/core ./internal/legalize ./internal/anneal ./internal/netlist ./internal/analytic

# portfolio-race mirrors CI's portfolio determinism gate: every
# portfolio/cancellation test twice, shuffled, under the race detector —
# including the wall-clock scheduling acceptance test that -short skips.
# A race winner or contender status that depends on scheduler jitter
# fails here. See docs/PORTFOLIO.md.
portfolio-race:
	$(GO) test -race -shuffle=on -run 'Portfolio|Cancel' -count=2 ./...

# cover prints the per-function coverage summary; report-only, no threshold.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out

bench:
	$(GO) test -bench=. -benchmem

# bench-baseline refreshes the committed benchmark snapshot that CI's
# benchdiff and alloc-gate jobs compare against; the snapshot carries both
# the timing and the allocs/op + B/op columns. See docs/PERFORMANCE.md
# before updating.
bench-baseline:
	$(GO) run ./cmd/benchdiff run -o BENCH_baseline.json

# bench-allocs mirrors CI's hard alloc gate: one iteration per benchmark,
# three runs, each row keeping its minimum allocs/op and B/op over the
# runs, then a zero-tolerance comparison against the committed baseline.
# The minimum usually drops the Go runtime's occasional 96-B sudog, which
# lands on a random row in a random run (though a row can read it in all
# three; see docs/PERFORMANCE.md); an allocation in our code shows in every
# run, so it always fails. Timing is ignored entirely.
bench-allocs:
	$(GO) run ./cmd/benchdiff run -benchtime 1x -count 3 -o BENCH_current.json
	$(GO) run ./cmd/benchdiff compare -gate allocs -baseline BENCH_baseline.json -current BENCH_current.json

# benchdiff runs the kernel benchmarks and compares against the committed
# baseline, failing on >25% ns/op regressions.
benchdiff:
	$(GO) run ./cmd/benchdiff run -o BENCH_current.json
	$(GO) run ./cmd/benchdiff compare -baseline BENCH_baseline.json -current BENCH_current.json

# fuzz-smoke gives each format-parser fuzz target a short native-fuzzing
# run (Go can only fuzz one target per invocation). The seeds always run
# under plain `make test`; this adds coverage-guided exploration on top.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/gsrc/ -run '^$$' -fuzz FuzzParseBlocks -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gsrc/ -run '^$$' -fuzz FuzzParseNets -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gsrc/ -run '^$$' -fuzz FuzzParsePl -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mcnc/ -run '^$$' -fuzz FuzzParseMCNC -fuzztime $(FUZZTIME)

# eco is CI's incremental-floorplanning gate: the differential/metamorphic
# ECO oracle, the MCNC corpus, and the service's ECO chain tests, twice
# under the race detector with shuffled order (warm-start reuse must not
# depend on test order or scheduling). The root package took 1484 s
# on a 2-vCPU host (two passes of the ECO differential oracle), hence the
# explicit -timeout.
eco:
	$(GO) test -race -count=2 -shuffle=on -timeout 60m -run 'ECO|MCNC|Incremental' ./...

# integration builds the real floorpland binary, starts it with -data-dir,
# submits a batch, SIGKILLs the daemon mid-solve, restarts it on the same
# journal, and asserts every job finishes exactly once. Behind a build tag
# because it spawns processes and takes seconds; plain `make test` skips it.
integration:
	$(GO) test -tags integration -count=1 -timeout 600s ./cmd/floorpland/

clean:
	$(GO) clean ./...
	rm -f BENCH_current.json cover.out
