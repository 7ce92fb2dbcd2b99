# Developer entry points. `make verify` is the local/CI gate: lint (reprolint
# + ruff) and typecheck plus the fast smoke suite (slow-marked tests
# excluded). `make test` is tier-1.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify lint reprolint lint-changed typecheck smoke test sanitize-smoke sparse-smoke store-smoke kernels-smoke serving-smoke scale-smoke train-parallel-smoke tables-smoke

verify: lint typecheck smoke sparse-smoke store-smoke kernels-smoke serving-smoke scale-smoke train-parallel-smoke sanitize-smoke tables-smoke

lint: reprolint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	elif $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "warning: ruff not installed; skipping ruff lint"; \
	fi

# Every rule (lexical RPL001-010/015 and interprocedural RPL011-014) in one
# pass: one parse per file, and the content-hash result cache
# (.reprolint-cache.json) makes repeat runs incremental. No baseline file
# is used: new findings fail immediately.
reprolint:
	$(PYTHON) -m repro.cli lint src

# Every rule, reported only for files changed vs main (plus untracked
# files). The graph rules still see the whole tree — results for unchanged
# files come from the warm cache, so this stays fast.
lint-changed:
	$(PYTHON) -m repro.cli lint --changed-since main src

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	elif $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "warning: mypy not installed; skipping typecheck"; \
	fi

smoke:
	$(PYTHON) -m pytest -q -m "not slow"

# Fast sparse-vs-dense gradient equivalence gate (skips the 50k-entity
# timing run; `make -C . test` and the benchmarks cover the speedup gate).
sparse-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_sparse_grads.py -k "not speedup"

# Artifact-store correctness gate at small scale (the 5x warm-vs-cold
# speedup gate needs full-scale builds; benchmarks cover it).
store-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_store.py -k "smoke"

# Fused-kernel gradcheck/parity gate (the 2x epoch speedup gate needs the
# full table-2 scale run; benchmarks/test_bench_kernels.py covers it).
kernels-smoke:
	$(PYTHON) -m pytest -q tests/test_kernels.py

# Serving correctness gate: index freeze/load, batched == single bit-identity,
# fold-in, HTTP round trips (the 500 rps / p99 throughput gate needs full
# scale; benchmarks/test_bench_serving.py covers it).
serving-smoke:
	$(PYTHON) -m pytest -q tests/test_serving.py tests/test_serving_server.py

# Out-of-core pipeline gate at 3e4 users in a subprocess: peak-RSS ceiling,
# warm-rerun bit-safety (the 1e6-user run with the 10^7-interaction floor
# lives in benchmarks/test_bench_scale.py at full scale).
scale-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_scale.py -k "smoke"

# Data-parallel training gate on any core count: fork-vs-inline loss
# identity plus distributed-vs-serial gradient agreement, emitting
# BENCH_parallel.json (the 2x epoch speedup gate needs >= 4 cores;
# benchmarks/test_bench_parallel.py covers it).
train-parallel-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_parallel.py -k "not speedup"

sanitize-smoke:
	REPRO_SANITIZE=1 $(PYTHON) -m repro.cli sanitize-run BPRMF ooi --epochs 2

# Table fan-out gate: Table IV at small scale, run in-process and across two
# worker processes; the rendered tables must be byte-identical.
tables-smoke:
	tmp=$$(mktemp -d) && \
	$(PYTHON) -m repro.cli --scale small table 4 --epochs 1 --workers 0 > $$tmp/serial.txt && \
	$(PYTHON) -m repro.cli --scale small table 4 --epochs 1 --workers 2 > $$tmp/parallel.txt && \
	diff $$tmp/serial.txt $$tmp/parallel.txt; rc=$$?; rm -rf $$tmp; exit $$rc

test:
	$(PYTHON) -m pytest -x -q
