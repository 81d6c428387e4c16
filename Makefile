GO ?= go

.PHONY: check fmt vet staticcheck test build loc paper fuzz-smoke bench bench-e2e bench-e2e-compare bench-e2e-pairs serve-smoke provenance-smoke warmstart-smoke

# check is the tier-1 verification: formatting, static analysis, and the
# full test suite under the race detector.
check: fmt vet staticcheck test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second vet type-checks the arm64 build (a cross-build of a pure-Go
# module needs no download): the float kernels are compiled differently
# there (fused multiply-add, ROADMAP item 11), and it is the build that
# runs the Go butterflies and sigmoid in place of the amd64 assembly.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# staticcheck is best-effort locally (the binary may not be installed and
# check must work offline); CI installs it, so there it always runs.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test -race ./...

build:
	$(GO) build ./...

# loc prints what ROADMAP item 7 tracks: non-test Go and assembly lines outside
# benchmark/, scripts/*.sh, check.yml and this file, the flags cmd/* +
# internal/cli register, and the exported declarations outside benchmark/.
loc:
	@./scripts/loc.sh

# paper re-archives the paper's evaluation into results/ at 512 px / 2 nm:
# Tables 2-3, Figs 1-6, the B4 ablations and the process-window weight
# sweep, with table2.csv stamped by its numeric generation. cmd/experiments'
# tests hold a fresh Table 2 to that archive and EXPERIMENTS.md to its
# numbers. About 70 s on two cores.
paper:
	$(GO) run ./cmd/experiments -out results -ablations

# fuzz-smoke runs every fuzz target for FUZZ_TIME each: the binary
# decoders behind internal/frame (error or exact round-trip, never a
# panic, never an allocation sized by a length field beyond the input),
# the two layout parsers and the PGM mask reader, the admission gate (a
# job body or a TileOptions is refused with a typed error, or runs), the
# optimizer's float fields (refused, or a short run to a finite mask),
# the optimizer's corner list (bit-equal to its serial oracle) and the
# vector kernels (bit-equal to their Go loops): the FFT's butterflies,
# column passes and line fill, the sigmoid, W's terms, the band count and
# the folds.
# go test takes one -fuzz target per run. Minimization is capped in
# executions, not time: the default 60 s per new corpus entry would eat a
# 5 s budget whole.
FUZZ_TIME ?= 5s
FUZZ_TARGETS := frame:FuzzDecode frame:FuzzScan ilt:FuzzReadResult \
	warmstart:FuzzDecodeEntry artifact:FuzzDecodeQuality geom:FuzzParse \
	gds:FuzzParse serve:FuzzAdmit ilt:FuzzConfigValidate optics:FuzzConfigValidate \
	ilt:FuzzCornerList render:FuzzReadPGM fft:FuzzButterflies resist:FuzzSigmoid \
	ilt:FuzzSensitivity metrics:FuzzBandPixels grid:FuzzAccumAbs2 sim:FuzzFold fft:FuzzLines \
	fft:FuzzColumns

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz ./internal/$${t%%:*} $${t##*:}"; \
		$(GO) test ./internal/$${t%%:*} -run='^$$' -fuzz="^$${t##*:}$$" \
			-fuzztime=$(FUZZ_TIME) -fuzzminimizetime=10x || exit 1; \
	done

# serve-smoke boots the mosaicd job service and drives one tiny job
# through the HTTP API end to end (submit, poll, result, mask, drain).
serve-smoke:
	./scripts/serve_smoke.sh

# provenance-smoke runs sharded jobs against a mosaicd with a cache dir
# and an artifact dir: the warm run must be served from the cache and
# anchor the cold run's manifest/Merkle digests; across a restart a byte
# flipped in a stored blob must fail /verify naming the leaf, and a
# corrupted cache entry must be quarantined and recomputed to the same root.
provenance-smoke:
	./scripts/provenance_smoke.sh

# warmstart-smoke drives the warm-start pattern library end-to-end behind
# mosaicd (tile cache off): an empty library must be byte-identical to
# disabled, a translated repeat must be seeded and score no worse, and a
# corrupt entry must be quarantined and recomputed across a restart; then,
# beside a disk cache, an exact repeat must compute nothing.
warmstart-smoke:
	./scripts/warmstart_smoke.sh

# bench runs the profiling testing.B rows (the clip operation and its
# evaluation, untiled and tiled, one best-focus SOCS image, the convolution engine, the tile pipeline, the
# compute pool's cold and warm fork latency, the 1-D FFT, the sigmoid and
# the per-pixel passes, BenchmarkPass*, on their Go and vector paths) and archives the benchstat-compatible text
# under results/, stamped with today's date. It is not a speed gate: a
# speed claim rests on bench-e2e-pairs below, and the paper's tables are
# make paper's.
BENCH_PATTERN ?= ClipOperation|Evaluate|MicroIteration|MicroForwardSOCS|Convolve|TilePipeline|TileCache|WarmStart|BuildKernels|Transform1D|ForFork|Sigmoid|Pass
BENCH_TIME ?= 1s
BENCH_STAMP := $(shell date +%Y%m%d)

bench:
	@mkdir -p results
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchtime='$(BENCH_TIME)' -benchmem -p 1 ./... \
		| tee results/BENCH_$(BENCH_STAMP).txt

# bench-e2e runs the repo benchmark (benchmark/, BENCHMARK.json) — every
# workload once per seed, each in a fresh process as the driver runs them —
# and archives the run set under results/. E2E_OUT names the archive, so a
# parent checkout and a change can be measured into two files.
E2E_SEEDS ?= 1,2,3,4,5,6,7,8,9,10
E2E_OUT ?= results/E2E_$(BENCH_STAMP).json

bench-e2e:
	@mkdir -p $(dir $(E2E_OUT))
	bash benchmark/run.sh run --seeds $(E2E_SEEDS) --out $(E2E_OUT)
	@echo "wrote $(E2E_OUT)"

# bench-e2e-compare prints ok/regressed/unresolved per workload and
# end-to-end metric for a parent run set A and a change run set B, and
# fails when any row regressed.
bench-e2e-compare:
	@if [ -z "$(A)" ] || [ -z "$(B)" ]; then \
		echo "bench-e2e-compare: need A=parent.json B=change.json"; exit 2; fi
	bash benchmark/run.sh compare $(A) $(B)

# bench-e2e-pairs is the measurement a performance claim rests on: PARENT
# and the change (HEAD, or the tracked and staged files of a dirty tree)
# are both git-archived into temp dirs — the checkout's own side read
# ~8 % slow on a 1.5 ms median — and run the repo benchmark on PAIRS
# interleaved seeds, the side that goes first alternating; the merged run
# sets land in results/E2E_<STAMP>_parent.json and _change.json (STAMP
# defaults to today) and bench-e2e-compare's verdicts are printed last.
# ~4 min a pair. CPUS=0 runs both sides under `taskset -c 0`, so every
# workload runs at GOMAXPROCS 1: a claim's one-CPU addendum.
PAIRS ?= 10
CPUS ?=

bench-e2e-pairs:
	@if [ -z "$(PARENT)" ]; then \
		echo "bench-e2e-pairs: need PARENT=<rev> [PAIRS=10] [STAMP=yyyymmdd] [CPUS=<list>]"; exit 2; fi
	PAIRS=$(PAIRS) CPUS=$(CPUS) ./scripts/e2e_pairs.sh $(PARENT)
