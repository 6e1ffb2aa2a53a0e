# Reproduction of "Bitmap Compression vs. Inverted List Compression"
# (SIGMOD 2017). See README.md and DESIGN.md.

GO ?= go

.PHONY: all build vet test race bench figures experiments loadtest oracle clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# The one producer of performance numbers: the measurement spine
# (BENCHMARK.json, benchmark/README.md).
bench:
	bash benchmark/run.sh

# Full chaos-mode load run: 30s of open-loop zipfian traffic against a
# real bvserve subprocess while the orchestrator hot-reloads it (SIGHUP
# and POST /reload), swaps in a corrupted index to force a degraded-mode
# transition, and SIGKILLs/restarts it mid-flight. Every response must
# be correct, a clean shed, or a documented degraded partial; writes
# results/LOAD_chaos.json and exits non-zero on any SLO gate violation.
# Then the live-ingestion storm: bvserve -live under sentinel-verified
# ingest/delete traffic, SIGKILLed mid-ingest twice and restarted over
# the same directory, gated on zero lost acked writes, zero resurrected
# deletes, and zero incorrect responses; writes results/LOAD_ingest.json.
loadtest:
	mkdir -p bin results
	$(GO) build -o bin/bvserve ./cmd/bvserve
	$(GO) run ./cmd/bvload -chaos -serve-bin bin/bvserve \
		-duration 30s -rate 150 -slo-p99 250ms -out results/LOAD_chaos.json
	$(GO) run ./cmd/bvload -ingest -serve-bin bin/bvserve \
		-duration 20s -rate 120 -out results/LOAD_ingest.json

# Differential correctness oracle: every optimized path vs its slow
# reference across a randomized seed sweep (see internal/oracle).
oracle:
	$(GO) test -count=1 ./internal/oracle

# Regenerate every table/figure as text tables (see cmd/bvbench -help
# for scale knobs).
experiments:
	$(GO) run ./cmd/bvbench -exp all -summary

# Render the figures as SVG scatter plots under figs/.
figures:
	$(GO) run ./cmd/bvbench -exp all -format csv | $(GO) run ./cmd/bvplot -out figs

clean:
	rm -rf figs
