# Convenience targets for the NVMalloc reproduction.

.PHONY: install test test-faults test-lifecycle test-obs test-cache test-slo cache-ablation slo-curve bench bench-wallclock bench-floor profile profile-layers trace experiments experiments-par examples clean

install:
	pip install -e .

test:
	pytest tests/

# The fault-injection experiment suite (excluded from `make test` by the
# "not faults" marker expression; CI runs it in a dedicated job).
test-faults:
	PYTHONPATH=src pytest -m faults

# The checkpoint-lifecycle experiment suite (chains, async drain,
# crash-restart recovery; CI runs it in a dedicated job).
test-lifecycle:
	PYTHONPATH=src pytest -m lifecycle

bench:
	pytest benchmarks/ --benchmark-only

bench-wallclock:
	PYTHONPATH=src python tools/bench_wallclock.py \
		--baseline benchmarks/BENCH_wallclock_seed.json --repeat 3
	PYTHONPATH=src pytest benchmarks/test_wallclock_stack.py -m wallclock

# Gate a fresh run's kernel throughput against the committed benchmark
# (floors derive from BENCH_wallclock.json's events_per_second figures).
bench-floor:
	PYTHONPATH=src python tools/bench_wallclock.py --output /tmp/bench_fresh.json
	python tools/check_bench_floor.py /tmp/bench_fresh.json --require-all

profile:
	PYTHONPATH=src python tools/profile_stack.py --limit 25

# Per-(layer, op) virtual-time attribution from traced spans; diff two
# dumps with `tools/profile_stack.py --layers --diff old.json`.
profile-layers:
	PYTHONPATH=src python tools/profile_stack.py --layers --scale tiny \
		--layers-out /tmp/profile_layers.json

# The tracing-identity gate (excluded from `make test` by the "not obs"
# marker expression; CI runs it in the dedicated tracing job).
test-obs:
	PYTHONPATH=src pytest -m obs

# The cache-tiering determinism/improvement suite (excluded from
# `make test` by the "not cache" marker expression; CI runs it in the
# dedicated cache job).
test-cache:
	PYTHONPATH=src pytest -m cache

# Render the full lru-vs-arc / tier-on-off ablation grid.
cache-ablation:
	PYTHONPATH=src python -m repro.experiments cache_tiering

# The open-loop traffic/SLO experiment suite (excluded from `make test`
# by the "not slo" marker expression; CI runs it in a dedicated job).
test-slo:
	PYTHONPATH=src pytest -m slo

# Render the load-latency curve, its knee, and the SLO-under-failure
# verdicts at benchmark scale.
slo-curve:
	PYTHONPATH=src python -m repro.experiments slo_traffic

# Trace the faults experiment on the virtual clock and export a Chrome
# trace (open trace.json in chrome://tracing or https://ui.perfetto.dev).
trace:
	PYTHONPATH=src python -m repro.experiments faults --scale tiny \
		--trace --trace-out trace.json

experiments:
	python -m repro.experiments

# Fan the experiment matrix across every core, memoized in the result cache.
experiments-par:
	python -m repro.experiments --jobs $(shell nproc)

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf src/*.egg-info .pytest_cache .hypothesis
