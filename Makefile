# Quality gates (reference parity: /root/reference/Makefile ci -> scripts/ci/*).
# The sandbox has no ruff/mypy and installs are forbidden, so each gate
# prefers the real tool when installed (dev machines) and falls back to a
# dependency-free in-repo equivalent. `make ci` is the gate the reference's
# `make ci` users expect.

PY ?= python
MYPY := $(shell command -v mypy 2>/dev/null)

.PHONY: ci lint typecheck compile test test-coverage coverage security check check-sf0.1 check-pairs check-fold bench bench-kernels

# make stops at the first failing gate, so reaching the summary means every
# gate that ran passed; a gate whose tool is missing says so instead
ci: lint typecheck compile test-coverage security
	@echo "ci: lint PASS | typecheck $(if $(MYPY),PASS,NOT RUN (mypy not installed)) | compile PASS | test-coverage PASS | security PASS"

# the test suite runs exactly once either way: with `coverage` installed
# (same detection as coverage_gate.py) the gate runs pytest under it;
# without it, pytest runs plainly and the gate falls back to its static
# import-closure check
test-coverage:
	@if command -v coverage >/dev/null 2>&1 || $(PY) -c "import coverage" >/dev/null 2>&1; then \
		$(PY) scripts/ci/coverage_gate.py; \
	else \
		$(MAKE) --no-print-directory test && $(PY) scripts/ci/coverage_gate.py; \
	fi

# reference scripts/ci/coverage_gate.sh: real `coverage` (line-min 80) when
# installed, else the static import-graph reachability fallback (100% of
# package modules must be reachable from tests/bench/entry)
coverage:
	$(PY) scripts/ci/coverage_gate.py

# reference scripts/ci/security.sh: bandit -lll + pip-audit when installed,
# else the dependency-free AST scan of the same high-severity patterns
security:
	$(PY) scripts/ci/security.py

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check entity_resolution_engine_ray tests scripts bench.py __ray_entry__.py; \
	else \
		$(PY) scripts/ci/lint.py; \
	fi

typecheck:
ifneq ($(MYPY),)
	mypy --config-file mypy.ini entity_resolution_engine_ray
else
	@echo "typecheck: NOT RUN (mypy not installed; config in mypy.ini)"
endif

compile:
	$(PY) -m compileall -q entity_resolution_engine_ray tests scripts bench.py __ray_entry__.py

test:
	$(PY) -m pytest tests/ -x -q

# the driver's correctness gate, locally: every queries() entry vs its
# DuckDB oracle at sf0.01
check:
	$(PY) scripts/check_queries.py /root/testdata/sf0.01

# third-scale gate: the same comparison at 10x the driver's scale — this
# is what exposed the order-dependent float-sum drift in the money
# aggregates (BASELINE.md round-4 note); run it after touching any
# ROUND/SUM oracle pair
check-sf0.1:
	$(PY) scripts/check_queries.py /root/testdata/sf0.1

# the 13 queries that run through the blocked-pair candidate → verify →
# dedup tails (stages/dedup, stages/containment, stages/knn): their oracles
# alone, for a change to those tails; `make check` still runs all of them
PAIR_QUERIES := near_dup_minhash near_dup_ngram dup_cluster_histogram near_dup_keep_best \
	corpus_export cross_corpus_near_dup embedding_near_dup near_dup_simhash \
	semantic_dedup_keep er_blocking_eval er_fs_weights doc_jaccard_join doc_containment

check-pairs:
	$(PY) scripts/check_queries.py /root/testdata/sf0.01 $(PAIR_QUERIES)

# the incremental fold, checkpoint read/write and clustering kernels: the
# fold's equality and chain tests (its batch-pair rule against rescoring
# every pair of the touched blocks among them), the execution-count and
# checkpoint hand-off pins, kill/resume, empty inputs, the CC/labelprop
# kernels and the benchmark tracer's hooks on those functions — a fast
# gate for a change to pipelines/pages_er, state/checkpoint, stages/pairs
# or stages/cluster
FOLD_TESTS := tests/test_incremental.py tests/test_checkpoint_handoff.py tests/test_kill_resume.py \
	tests/test_empty_inputs.py tests/test_cluster_kernel.py tests/test_erbench_tracing.py \
	tests/test_parquet_features.py

check-fold:
	$(PY) -m pytest $(FOLD_TESTS) -x -q

bench:
	$(PY) bench.py

# per-kernel microbenchmarks (no Ray session, ~15 s): extract and
# featurize ms per 1,024-doc batch, the pair-score ms on the 2,000-page
# dense seed-7 partition and on a fold's partition of it, and the merge ms
# on its labeled table, as one JSON line
bench-kernels:
	$(PY) scripts/bench_kernels.py
