# Developer/CI entry points.  Everything runs from the repo root and assumes
# the dependencies baked into the dev image (numpy, scipy, pytest, hypothesis,
# pytest-benchmark) are installed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test paper-experiments bench-smoke bench-pipeline bench-record bench-check \
	bench-restore-latency bench-server bench-volumes cli-smoke store-smoke \
	restore-smoke append-smoke server-smoke volume-smoke hygiene golden \
	lint typecheck perfbench-selftest

# Where bench-record writes its BENCH_*.json.  The default (repo root) is the
# committed baseline; CI records into a scratch dir and compares against it.
BENCH_DIR ?= .

## tier-1 test suite (the roadmap's verification command)
test:
	$(PYTHON) -m pytest -x -q

## the paper's experiments E1-E4 and claims C1-C5 (24 tests in benchmarks/,
## which `make test` does not collect; REPRO_BENCH_SCALE sets their size)
PAPER_EXPERIMENTS = cinema_film_archive columnar_layout compression media_density \
	microfilm_archive nested_emulation paper_archive portability robustness
paper-experiments:
	$(PYTHON) -m pytest -q --benchmark-disable -p no:cacheprovider \
		$(foreach name,$(PAPER_EXPERIMENTS),benchmarks/bench_$(name).py)

## repo hygiene: fail if bytecode artefacts are tracked by git
hygiene:
	@bad=$$(git ls-files | grep -E '(\.pyc$$|__pycache__)' || true); \
	if [ -n "$$bad" ]; then \
		echo "tracked bytecode artefacts found:"; echo "$$bad"; exit 1; \
	fi
	@echo "hygiene ok: no tracked *.pyc / __pycache__"

## static analysis: the repo's invariant linter (always; pure stdlib), then
## ruff when it is installed (CI installs it via requirements-dev.txt; the
## dev image may not carry it, in which case that half is skipped loudly)
lint:
	$(PYTHON) -m repro.devtools.lint src/repro benchmarks
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping ruff half of lint (CI runs it)"; \
	fi

## mypy --strict over src/repro (config in pyproject.toml); skipped loudly
## when mypy is not installed locally — CI always runs it
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; exit 0; \
	fi

## store smoke test: archive -> inspect -> read_range on the container backend
## (single shell + trap so .store-smoke is cleaned up even on failure)
store-smoke:
	@set -e; rm -rf .store-smoke; mkdir .store-smoke; \
	trap 'rm -rf .store-smoke' EXIT; \
	$(PYTHON) -c "open('.store-smoke/payload.bin','wb').write(b'ULE store smoke payload. '*400)"; \
	$(PYTHON) -m repro archive -i .store-smoke/payload.bin -o file:.store-smoke/backup.ule \
		--media test --codec portable --segment-size 2048; \
	$(PYTHON) -m repro inspect .store-smoke/backup.ule --json \
		| $(PYTHON) -c "import json,sys; m=json.load(sys.stdin); \
		assert m['format_version']==4 and m['segments'], m"; \
	$(PYTHON) -m repro restore -i .store-smoke/backup.ule -o .store-smoke/slice.bin \
		--offset 3000 --length 1000; \
	$(PYTHON) -c "want=(b'ULE store smoke payload. '*400)[3000:4000]; \
	got=open('.store-smoke/slice.bin','rb').read(); assert got==want, 'slice mismatch'"

## CLI smoke test: archive -> inspect -> restore a tiny payload bit-exactly
## (single shell + trap so .cli-smoke is cleaned up even on failure)
cli-smoke:
	@set -e; rm -rf .cli-smoke; mkdir .cli-smoke; \
	trap 'rm -rf .cli-smoke' EXIT; \
	$(PYTHON) -c "open('.cli-smoke/payload.bin','wb').write(b'ULE cli smoke payload. '*200)"; \
	$(PYTHON) -m repro archive -i .cli-smoke/payload.bin -o .cli-smoke/arch \
		--media test --codec portable --segment-size 2048; \
	$(PYTHON) -m repro inspect .cli-smoke/arch; \
	$(PYTHON) -m repro restore -i .cli-smoke/arch -o .cli-smoke/restored.bin \
		--via-channel --seed 7; \
	cmp .cli-smoke/payload.bin .cli-smoke/restored.bin; \
	$(PYTHON) -m repro profiles --json | $(PYTHON) -c "import json,sys; json.load(sys.stdin)"

## restore smoke: --via-channel through the streaming channel path on a
## thread pool, a full restore streamed segment by segment from the file:
## target, a partial restore on a thread pool that decodes only the covering
## segments' data frames, a dir: archive with one data and one parity
## frame of one group blanked: restore stays bit-exact, verify warns twice,
## and the same archive with one data frame record deleted: restore stays
## bit-exact, verify fails naming the record
restore-smoke:
	@set -e; rm -rf .restore-smoke; mkdir .restore-smoke; \
	trap 'rm -rf .restore-smoke' EXIT; \
	$(PYTHON) -c "open('.restore-smoke/payload.bin','wb').write(b'ULE restore smoke payload. '*300)"; \
	$(PYTHON) -m repro archive -i .restore-smoke/payload.bin -o file:.restore-smoke/arch.ule \
		--media test --codec portable --segment-size 2048; \
	$(PYTHON) -m repro restore -i .restore-smoke/arch.ule -o .restore-smoke/restored.bin \
		--via-channel --seed 11 --executor thread:2; \
	cmp .restore-smoke/payload.bin .restore-smoke/restored.bin; \
	$(PYTHON) -m repro restore -i file:.restore-smoke/arch.ule -o .restore-smoke/full.bin; \
	cmp .restore-smoke/payload.bin .restore-smoke/full.bin; \
	$(PYTHON) -m repro restore -i .restore-smoke/arch.ule -o .restore-smoke/slice.bin \
		--offset 1000 --length 2000 --executor thread:2 --json \
		| $(PYTHON) -c "import json,sys; from repro.store import open_source; \
		m=json.load(sys.stdin); source=open_source('file:.restore-smoke/arch.ule'); \
		covering=[r for r in source.manifest().segments if r.offset < 3000 and r.end > 1000]; \
		source.close(); frames=sum(r.emblem_count for r in covering); \
		assert m['segments_decoded']==len(covering) and 0 < m['frames_decoded'] < frames, (m, frames)"; \
	$(PYTHON) -c "want=(b'ULE restore smoke payload. '*300)[1000:3000]; \
	got=open('.restore-smoke/slice.bin','rb').read(); assert got==want, 'slice mismatch'"; \
	$(PYTHON) -m repro archive -i .restore-smoke/payload.bin -o dir:.restore-smoke/damaged \
		--media test --codec portable --segment-size 2048; \
	$(PYTHON) -c "import json; from pathlib import Path; import numpy as np; \
		from repro.media.image import pgm_bytes, pgm_from_bytes; \
		from repro.mocoder.mocoder import stream_layout; \
		d=Path('.restore-smoke/damaged'); r=json.loads((d/'manifest.json').read_text())['segments'][1]; \
		start=r['emblem_start']; group=stream_layout(r['emblem_count'])[0]; \
		paths=[d/f'data_emblem_{start + i:04d}.pgm' for i in (0, group.data_end)]; \
		[p.write_bytes(pgm_bytes(np.full_like(pgm_from_bytes(p.read_bytes()), 255))) for p in paths]"; \
	$(PYTHON) -m repro restore -i dir:.restore-smoke/damaged -o .restore-smoke/damaged.bin; \
	cmp .restore-smoke/payload.bin .restore-smoke/damaged.bin; \
	$(PYTHON) -m repro verify dir:.restore-smoke/damaged --json \
		| $(PYTHON) -c "import json,sys; m=json.load(sys.stdin); \
		assert m['ok'] and len(m['warnings'])==2, m"; \
	LOST=$$($(PYTHON) -c "import json; \
		r=json.load(open('.restore-smoke/damaged/manifest.json'))['segments'][2]; \
		print('data_emblem_%04d.pgm' % r['emblem_start'])"); \
	rm .restore-smoke/damaged/$$LOST; \
	$(PYTHON) -m repro restore -i dir:.restore-smoke/damaged -o .restore-smoke/lost.bin; \
	cmp .restore-smoke/payload.bin .restore-smoke/lost.bin; \
	if $(PYTHON) -m repro verify dir:.restore-smoke/damaged --json >.restore-smoke/lost.json; then \
		echo "verify should have reported the deleted record $$LOST"; exit 1; \
	fi; \
	$(PYTHON) -c "import json,sys; m=json.load(open('.restore-smoke/lost.json')); \
		assert not m['ok'] and any(sys.argv[1] in e for e in m['errors']), m" $$LOST

## append smoke: archive -> append (incremental backup) -> verify (fsck) ->
## partial restore spanning the generation boundary, all through the CLI
append-smoke:
	@set -e; rm -rf .append-smoke; mkdir .append-smoke; \
	trap 'rm -rf .append-smoke' EXIT; \
	$(PYTHON) -c "open('.append-smoke/a.bin','wb').write(b'ULE append smoke gen0. '*200)"; \
	$(PYTHON) -c "open('.append-smoke/b.bin','wb').write(b'ULE append smoke gen1! '*150)"; \
	$(PYTHON) -m repro archive -i .append-smoke/a.bin -o file:.append-smoke/backup.ule \
		--media test --codec portable --segment-size 2048; \
	$(PYTHON) -m repro archive -i .append-smoke/b.bin -o .append-smoke/backup.ule \
		--append --json \
		| $(PYTHON) -c "import json,sys; m=json.load(sys.stdin); \
		assert m['generation']==1 and m['payload_bytes']==8050, m"; \
	$(PYTHON) -m repro verify .append-smoke/backup.ule --json \
		| $(PYTHON) -c "import json,sys; m=json.load(sys.stdin); \
		assert m['ok'] and m['active_generation']==1, m"; \
	$(PYTHON) -m repro restore -i .append-smoke/backup.ule -o .append-smoke/slice.bin \
		--offset 4100 --length 1000; \
	$(PYTHON) -c "want=(b'ULE append smoke gen0. '*200+b'ULE append smoke gen1! '*150)[4100:5100]; \
	got=open('.append-smoke/slice.bin','rb').read(); assert got==want, 'slice mismatch'"

## server smoke: serve a repository on an ephemeral port, then drive a full
## HTTP round trip (upload -> ranged read -> append -> verify -> stats) as a
## client, plus `repro inspect` against the running server's URL
server-smoke:
	@set -e; rm -rf .server-smoke; mkdir .server-smoke; \
	trap 'kill $$SERVER_PID 2>/dev/null || true; rm -rf .server-smoke' EXIT; \
	$(PYTHON) -m repro serve --root .server-smoke/root --port 0 \
		--port-file .server-smoke/port >.server-smoke/serve.log 2>&1 & \
	SERVER_PID=$$!; \
	for _ in $$(seq 1 100); do [ -s .server-smoke/port ] && break; sleep 0.2; done; \
	[ -s .server-smoke/port ] || { cat .server-smoke/serve.log; exit 1; }; \
	BASE="http://127.0.0.1:$$(cat .server-smoke/port)"; \
	$(PYTHON) examples/server_roundtrip.py --base-url "$$BASE"; \
	$(PYTHON) -m repro inspect "$$BASE/archives/smoke" --json \
		| $(PYTHON) -c "import json,sys; m=json.load(sys.stdin); \
		assert m['generation']==1 and m['payload_bytes']==54000, m"; \
	kill $$SERVER_PID; wait $$SERVER_PID 2>/dev/null || true

## volume-set smoke: archive onto a k=4,m=2 sharded volume set through the
## vol: target URI, destroy two whole member volumes, check that verify
## reports the damage (non-zero exit), then restore bit-exactly degraded
volume-smoke:
	@set -e; rm -rf .volume-smoke; mkdir .volume-smoke; \
	trap 'rm -rf .volume-smoke' EXIT; \
	TARGET="vol:k=4,m=2:.volume-smoke/v0,.volume-smoke/v1,.volume-smoke/v2,.volume-smoke/v3,.volume-smoke/v4,.volume-smoke/v5"; \
	$(PYTHON) -c "open('.volume-smoke/payload.bin','wb').write(b'ULE volume smoke payload. '*300)"; \
	$(PYTHON) -m repro archive -i .volume-smoke/payload.bin -o "$$TARGET" \
		--media test --codec portable --segment-size 2048; \
	$(PYTHON) -m repro verify "$$TARGET" --json \
		| $(PYTHON) -c "import json,sys; m=json.load(sys.stdin); assert m['ok'], m"; \
	rm -rf .volume-smoke/v1 .volume-smoke/v4; \
	if $(PYTHON) -m repro verify "$$TARGET" >/dev/null 2>&1; then \
		echo "verify should have reported the two lost volumes"; exit 1; \
	fi; \
	$(PYTHON) -m repro restore -i "$$TARGET" -o .volume-smoke/restored.bin; \
	cmp .volume-smoke/payload.bin .volume-smoke/restored.bin; \
	$(PYTHON) -m repro restore -i "$$TARGET" -o .volume-smoke/slice.bin \
		--offset 3000 --length 1500; \
	$(PYTHON) -c "want=(b'ULE volume smoke payload. '*300)[3000:4500]; \
	got=open('.volume-smoke/slice.bin','rb').read(); assert got==want, 'slice mismatch'"

## self-test of the paper-shaped benchmark (perfbench/) on the test geometry:
## every workload verifies its outputs and the traced run covers each layer,
## so an API change the benchmark depends on fails here rather than later
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

## quick pipeline benchmark used as a CI smoke check
bench-smoke:
	$(PYTHON) benchmarks/bench_pipeline.py --smoke

## full pipeline benchmark (one-shot vs streaming vs parallel, ~4 MiB payload)
bench-pipeline:
	$(PYTHON) benchmarks/bench_pipeline.py

## restore-latency benchmark (sub-segment parallel decode, slowed-backend
## range read, emulated restore)
bench-restore-latency:
	$(PYTHON) benchmarks/bench_restore_latency.py

## archive-service benchmark (concurrent HTTP clients, shared segment cache)
bench-server:
	$(PYTHON) benchmarks/bench_server.py

## volume-set benchmark (shard-parallel restore, degraded-read penalty)
bench-volumes:
	$(PYTHON) benchmarks/bench_volumes.py

## record the benchmark trajectory: JSON measurements into BENCH_DIR
## (default: the repo root, i.e. the committed baseline files)
bench-record:
	$(PYTHON) benchmarks/bench_pipeline.py --smoke --json $(BENCH_DIR)/BENCH_pipeline.json
	$(PYTHON) benchmarks/bench_store.py --json $(BENCH_DIR)/BENCH_store.json
	$(PYTHON) benchmarks/bench_restore_latency.py --smoke --json $(BENCH_DIR)/BENCH_restore_latency.json
	$(PYTHON) benchmarks/bench_server.py --smoke --json $(BENCH_DIR)/BENCH_server.json
	$(PYTHON) benchmarks/bench_volumes.py --smoke --json $(BENCH_DIR)/BENCH_volumes.json

## regression gate: re-record into a scratch dir, fail on a > 30% throughput
## drop vs the committed BENCH_*.json (see benchmarks/check_regression.py)
bench-check:
	@rm -rf .bench-fresh; mkdir .bench-fresh
	$(MAKE) bench-record BENCH_DIR=.bench-fresh
	$(PYTHON) benchmarks/check_regression.py --fresh-dir .bench-fresh

## regenerate the golden Bootstrap text after a deliberate decoder change
golden:
	REPRO_REGEN_GOLDEN=1 $(PYTHON) -m pytest -q tests/test_bootstrap_golden.py
