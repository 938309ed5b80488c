"""Tests for the repro.devtools invariant linter.

Each rule gets positive fixtures (the violation fires, with the right rule
ID and line) and negative fixtures (idiomatic code stays clean); the
annotation conventions (``disable=`` with justification, ``guarded-by`` /
``requires-lock``) are exercised both ways, and an end-to-end run asserts
the live ``src/repro`` tree is clean.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools.lint import (
    ExecutorPickleRule,
    GuardedByRule,
    Linter,
    OwnedLiteralRule,
    RatioDirectionRule,
    RegistryRule,
    RngRule,
    SilentExceptRule,
    default_rules,
    main,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def lint_snippet(tmp_path: Path, source: str, *, rules=None, name: str = "mod.py"):
    """Lint one dedented snippet, returning its findings."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    if rules is None:
        # Project-wide/runtime rules need the live tree, not a snippet.
        rules = [
            rule for rule in default_rules()
            if not isinstance(rule, (RegistryRule, GuardedByRule))
        ]
    linter = Linter(rules=rules)
    return linter.run([path]).findings


def rule_ids(findings) -> list[str]:
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------------- #
# REP101 — global-state randomness
# --------------------------------------------------------------------------- #
class TestRngRule:
    def test_numpy_global_call_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)
            """,
            rules=[RngRule()],
        )
        assert rule_ids(findings) == ["REP101"]
        assert findings[0].line == 3
        assert "np.random.rand" in findings[0].message

    def test_default_rng_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(7)
            """,
            rules=[RngRule()],
        )
        assert rule_ids(findings) == ["REP101"]

    def test_stdlib_random_import_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "import random\n", rules=[RngRule()])
        assert rule_ids(findings) == ["REP101"]

    def test_from_random_import_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "from random import shuffle\n", rules=[RngRule()]
        )
        assert rule_ids(findings) == ["REP101"]

    def test_numpy_random_alias_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from numpy import random as nprand
            nprand.shuffle([1, 2])
            """,
            rules=[RngRule()],
        )
        assert rule_ids(findings) == ["REP101"]

    def test_generator_annotation_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            def scan(rng: np.random.Generator) -> None:
                rng.normal(size=3)
            """,
            rules=[RngRule()],
        )
        assert findings == []

    def test_rng_module_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            def deterministic_rng(seed):
                return np.random.default_rng(seed)
            """,
            rules=[RngRule()],
            name="repro/util/rng.py",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# REP102 — silent excepts
# --------------------------------------------------------------------------- #
class TestSilentExceptRule:
    def test_bare_except_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except:
                handle()
            """,
            rules=[SilentExceptRule()],
        )
        assert rule_ids(findings) == ["REP102"]

    def test_swallowed_broad_except_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except Exception:
                pass
            """,
            rules=[SilentExceptRule()],
        )
        assert rule_ids(findings) == ["REP102"]

    def test_swallowed_ellipsis_and_tuple_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except (ValueError, BaseException):
                ...
            """,
            rules=[SilentExceptRule()],
        )
        assert rule_ids(findings) == ["REP102"]

    def test_handled_broad_except_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except Exception as exc:
                log(exc)
                raise
            """,
            rules=[SilentExceptRule()],
        )
        assert findings == []

    def test_swallowed_narrow_except_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except KeyError:
                pass
            """,
            rules=[SilentExceptRule()],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# REP201 — owned on-media literals
# --------------------------------------------------------------------------- #
class TestOwnedLiteralRule:
    def test_duplicate_magic_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            'MAGIC = b"ULEARC02"\n',
            rules=[OwnedLiteralRule()],
        )
        assert rule_ids(findings) == ["REP201"]
        assert "repro/store/backends.py" in findings[0].message

    def test_duplicate_struct_format_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            'import struct\nTRAILER = struct.Struct("<Q8s")\n',
            rules=[OwnedLiteralRule()],
        )
        assert rule_ids(findings) == ["REP201"]

    def test_owner_module_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            'CONTAINER_MAGIC = b"ULEARC02"\n_FMT = "<Q8s"\n',
            rules=[OwnedLiteralRule()],
            name="repro/store/backends.py",
        )
        assert findings == []

    def test_unrelated_literal_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            'OTHER = b"NOTMAGIC"\nFMT = "<HH"\n',
            rules=[OwnedLiteralRule()],
        )
        assert findings == []

    def test_str_bytes_distinction(self, tmp_path):
        # The *string* "ULEARC02" is not the owned *bytes* literal.
        findings = lint_snippet(
            tmp_path,
            'NAME = "ULEARC02"\n',
            rules=[OwnedLiteralRule()],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# REP301 — executor picklability
# --------------------------------------------------------------------------- #
class TestExecutorPickleRule:
    def test_lambda_to_submit_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(pool):
                pool.submit(lambda: 1)
            """,
            rules=[ExecutorPickleRule()],
        )
        assert rule_ids(findings) == ["REP301"]

    def test_closure_to_map_ordered_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(executor, items):
                def job(item):
                    return item
                return list(executor.map_ordered(job, items))
            """,
            rules=[ExecutorPickleRule()],
        )
        assert rule_ids(findings) == ["REP301"]
        assert "job" in findings[0].message

    def test_module_level_function_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def job(item):
                return item

            def run(executor, items):
                return list(executor.map_ordered(job, items))
            """,
            rules=[ExecutorPickleRule()],
        )
        assert findings == []

    def test_bound_method_and_param_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Prefetcher:
                def fill(self, pool, record, function, item):
                    pool.submit(self.fetch, record)
                    pool.submit(function, item)
            """,
            rules=[ExecutorPickleRule()],
        )
        assert findings == []

    def test_lambda_elsewhere_allowed(self, tmp_path):
        # register() is not a submit method; factory lambdas are fine.
        findings = lint_snippet(
            tmp_path,
            """
            def setup(registry):
                registry.register("serial", lambda workers=None: object())
            """,
            rules=[ExecutorPickleRule()],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# REP401 — name-table resolution (runs against the live tables)
# --------------------------------------------------------------------------- #
class TestRegistryRule:
    def test_live_registries_resolve(self):
        rule = RegistryRule()
        assert list(rule.check_project()) == []
        assert rule.notices() == []

    def test_dangling_alias_and_unreachable_name_reported(self, monkeypatch):
        from repro.core import profiles

        monkeypatch.setitem(profiles.MEDIA_ALIASES, "vinyl", "vinyl-33rpm")
        monkeypatch.setitem(profiles.PROFILES, "Shouty", profiles.TEST_PROFILE)
        findings = list(RegistryRule().check_project())
        assert [(finding.rule, finding.path) for finding in findings] == [
            ("REP401", "repro.core.profiles.MEDIA_ALIASES"),
            ("REP401", "repro.core.profiles.PROFILES"),
        ]
        assert findings[0].message == "alias 'vinyl' points at unregistered name 'vinyl-33rpm'"
        assert findings[1].message.startswith(
            "name 'Shouty' does not resolve: unknown media channel 'Shouty'"
        )


# --------------------------------------------------------------------------- #
# REP501 — guarded-by lock discipline
# --------------------------------------------------------------------------- #
GUARDED_CLASS = """
import threading

class Holder:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []  # lint: guarded-by(_lock)
{body}
"""


class TestGuardedByRule:
    def lint_body(self, tmp_path, body: str):
        return lint_snippet(
            tmp_path,
            GUARDED_CLASS.format(body=textwrap.indent(textwrap.dedent(body), "    ")),
            rules=[GuardedByRule()],
        )

    def test_unguarded_access_fires(self, tmp_path):
        findings = self.lint_body(
            tmp_path,
            """
            def add(self, item):
                self._items.append(item)
            """,
        )
        assert rule_ids(findings) == ["REP501"]
        assert "self._items" in findings[0].message
        assert "add()" in findings[0].message

    def test_guarded_access_allowed(self, tmp_path):
        findings = self.lint_body(
            tmp_path,
            """
            def add(self, item):
                with self._lock:
                    self._items.append(item)
            """,
        )
        assert findings == []

    def test_init_exempt(self, tmp_path):
        # The registration itself (in __init__) must not fire.
        findings = self.lint_body(tmp_path, "")
        assert findings == []

    def test_requires_lock_annotation_allowed(self, tmp_path):
        findings = self.lint_body(
            tmp_path,
            """
            def _fill(self):  # lint: requires-lock(_lock)
                self._items.append(1)
            """,
        )
        assert findings == []

    def test_wrong_lock_fires(self, tmp_path):
        findings = self.lint_body(
            tmp_path,
            """
            def add(self, item):
                with self._other:
                    self._items.append(item)
            """,
        )
        assert rule_ids(findings) == ["REP501"]

    def test_nested_function_resets_held_locks(self, tmp_path):
        # A callback defined inside `with self._lock:` runs later, without
        # the lock — accessing the guarded field there must fire.
        findings = self.lint_body(
            tmp_path,
            """
            def schedule(self, pool):
                with self._lock:
                    def later():
                        return self._items
                    pool.defer(later)
            """,
        )
        assert rule_ids(findings) == ["REP501"]

    def test_unguarded_fields_ignored(self, tmp_path):
        findings = self.lint_body(
            tmp_path,
            """
            def touch(self):
                return self._other_field
            """,
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# Suppression + annotation hygiene
# --------------------------------------------------------------------------- #
# --------------------------------------------------------------------------- #
# REP601 — benchmark ratio keys document their direction
# --------------------------------------------------------------------------- #
class TestRatioDirectionRule:
    def test_undocumented_ratio_key_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            report = {
                "speedup_vs_serial": 2.0,
            }
            """,
            rules=[RatioDirectionRule()],
            name="benchmarks/bench_mod.py",
        )
        assert rule_ids(findings) == ["REP601"]
        assert "speedup_vs_serial" in findings[0].message

    def test_documented_ratio_key_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            report = {
                # serial time over parallel time: higher is better.
                "speedup_vs_serial": 2.0,
                # degraded time over healthy time: lower is better.
                "penalty_vs_healthy": 1.4,
            }
            """,
            rules=[RatioDirectionRule()],
            name="benchmarks/bench_mod.py",
        )
        assert findings == []

    def test_subscript_assignment_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            report = {}
            report["speedup_vs_full"] = 3.0
            """,
            rules=[RatioDirectionRule()],
            name="benchmarks/bench_mod.py",
        )
        assert rule_ids(findings) == ["REP601"]

    def test_comment_beyond_lookback_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            # higher is better
            x = 1
            y = 2
            z = 3
            report = {"speedup_vs_serial": 2.0}
            """,
            rules=[RatioDirectionRule()],
            name="benchmarks/bench_mod.py",
        )
        assert rule_ids(findings) == ["REP601"]

    def test_non_benchmark_module_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            report = {"speedup_vs_serial": 2.0}
            """,
            rules=[RatioDirectionRule()],
        )
        assert findings == []

    def test_non_ratio_keys_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            report = {"mb_per_s": 2.0, "seconds": 1.0}
            """,
            rules=[RatioDirectionRule()],
            name="benchmarks/bench_mod.py",
        )
        assert findings == []


class TestSuppressions:
    def test_justified_suppression_silences(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)  # lint: disable=REP101 -- fixture exercising the RNG itself
            """,
            rules=[RngRule()],
        )
        assert findings == []

    def test_unjustified_suppression_is_reported_and_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)  # lint: disable=REP101
            """,
            rules=[RngRule()],
        )
        assert sorted(rule_ids(findings)) == ["REP001", "REP101"]

    def test_suppression_is_per_rule(self, tmp_path):
        # Disabling REP102 does not silence REP101 on the same line.
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)  # lint: disable=REP102 -- wrong rule on purpose
            """,
            rules=[RngRule()],
        )
        assert rule_ids(findings) == ["REP101"]

    def test_syntax_error_reports_rep000(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(findings) == ["REP000"]


# --------------------------------------------------------------------------- #
# CLI behaviour + end-to-end
# --------------------------------------------------------------------------- #
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "clean.py"
        path.write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(path), "--no-registry-check"]) == 0
        assert "1 file(s) clean" in capsys.readouterr().err

    def test_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.py"
        path.write_text("import random\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(path), "--no-registry-check"]) == 1
        assert "REP101" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/missing.py"]) == 2

    def test_explain_known_rule(self, capsys):
        assert main(["--explain", "REP501"]) == 0
        out = capsys.readouterr().out
        assert "REP501" in out and "guarded-by" in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["--explain", "REP999"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP101", "REP102", "REP201", "REP301", "REP401", "REP501"):
            assert rule_id in out

    def test_live_tree_is_clean(self, capsys):
        """End to end: the shipped src/repro tree has zero findings."""
        assert main([str(SRC_ROOT / "repro")]) == 0

    def test_runs_without_numpy(self):
        """The parse-only rules work with numpy/scipy import-blocked."""
        blocker = (
            "import sys\n"
            "class Blocker:\n"
            "    def find_module(self, name, path=None):\n"
            "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
            "            return self\n"
            "    def load_module(self, name):\n"
            "        raise ImportError('blocked: ' + name)\n"
            "sys.meta_path.insert(0, Blocker())\n"
            "from repro.devtools.lint import main\n"
            f"sys.exit(main([{str(SRC_ROOT / 'repro')!r}]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", blocker],
            env={"PYTHONPATH": str(SRC_ROOT)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "REP401 skipped" in result.stderr
