PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-crashsim test-faultsim lint smoke smoke-replay service-smoke service-smoke-pool shard-smoke events-smoke docs-check bench bench-perf bench-perf-smoke bench-service bench-load bench-load-smoke clean-cache

## Tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Crash-injection suite alone: kills the service queue at every
## fsync/rename/append boundary and asserts the replay invariants.
test-crashsim:
	$(PYTHON) -m pytest tests/service/test_crashsim.py -q

## Fault-injection suite alone: arms deterministic kill/hang/raise
## faults inside real worker pools and asserts the containment contract
## (healthy batchmates exactly once, poison quarantined, replay clean).
test-faultsim:
	$(PYTHON) -m pytest tests/service/test_faultsim.py -q

## Ruff lint gate (config in pyproject.toml).  Skips with a notice when
## ruff is not installed; CI installs ruff and enforces it.
lint:
	$(PYTHON) scripts/lint.py

## End-to-end pipeline smoke: every figure, reduced profile, 2 workers.
smoke:
	$(PYTHON) -m repro run-all --profile quick --jobs 2 --cache-dir .repro-cache --json smoke-results.json

## Warm-replay check: quick run-all cold with 2 workers, then warm and
## serial twice on the same fresh cache, first without the figure
## documents (every cell must hit), then with them (only documents are
## read); fails unless the three manifests are byte-identical.
smoke-replay:
	$(PYTHON) scripts/replay_smoke.py

## Service smoke: start `repro serve`, submit a tiny sweep over HTTP,
## verify the response against the cached artifact and the warm path.
service-smoke:
	$(PYTHON) scripts/service_smoke.py

## The same smoke with every cell on the server's persistent spawn pool.
service-smoke-pool:
	$(PYTHON) scripts/service_smoke.py --jobs 2 --job-timeout 120

## Multi-process shard smoke: two `repro serve --shard` processes over
## one --shared-cache-dir, a tiny sweep split across them byte-identical
## to serial run_sweep, and a cross-shard instant-complete from the
## shared tier.
shard-smoke:
	$(PYTHON) scripts/shard_smoke.py

## Observability smoke: tail the SSE event stream while a job runs,
## assert the queued->done lifecycle arrives as push events, the
## ?trace=1 span timeline telescopes, and /v1/metrics parses as
## Prometheus exposition text.
events-smoke:
	$(PYTHON) scripts/events_smoke.py

## Fail if README.md / DESIGN.md drift from the CLI's --help surface.
docs-check:
	$(PYTHON) scripts/check_docs.py

## pytest-benchmark harness: the nine figure harnesses.  Named by file,
## because pytest collects only test_*.py by default and widening
## python_files would also import benchmarks/perf/*.py.
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

## Simulation-core perf harness; writes BENCH_simcore.json at the root.
## PROFILE=tiny for CI-sized runs.
PROFILE ?= quick
bench-perf:
	$(PYTHON) benchmarks/perf/bench_simcore.py --profile $(PROFILE)

## CI perf-smoke gate: quick simcore bench (both native engines vs
## their Python oracles) plus two byte-identity checks on tiny-profile
## run-all manifests: native functional ≡ Python engine and native
## kernel ≡ oracle.
bench-perf-smoke:
	$(PYTHON) scripts/bench_perf_smoke.py

## Service perf harness: warm-cache requests/sec + cold batch latency;
## writes BENCH_service.json at the root.
bench-service:
	$(PYTHON) benchmarks/perf/bench_service.py

## Multi-tenant load/SLO harness: 10k+ seeded mixed warm/cold jobs plus
## a sustained-overload phase; merges a `load` section (p50/p95/p99,
## saturation throughput, rejection rates, exactly-once ledger) into
## BENCH_service.json.
bench-load:
	$(PYTHON) benchmarks/perf/bench_load.py

## Seconds-bounded miniature of the same harness (the CI gate): writes
## BENCH_load_smoke.json and fails loudly if the `load` section is
## missing keys, mis-ordered, or violates the exactly-once ledger.
bench-load-smoke:
	$(PYTHON) benchmarks/perf/bench_load.py --smoke

## Remove everything .gitignore ignores: the artifact cache, bytecode
## droppings, egg-info, and smoke output.
clean-cache:
	rm -rf .repro-cache .repro-queue smoke-results.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf *.egg-info src/*.egg-info .pytest_cache .benchmarks
