"""AST-based invariant linter for the repository's correctness contracts.

``python -m repro.devtools.lint [paths...]`` parses every Python file under
the given paths (default: ``src/repro``) and enforces the domain rules a
generic checker cannot express — the conventions the archive's
decode-it-decades-later story actually rests on.  See the rule classes (or
``--explain REPxxx``) for the full rationale of each rule:

========  ====================================================================
Rule      Contract
========  ====================================================================
REP000    files must parse (meta: syntax errors)
REP001    inline suppressions must carry a justification (meta)
REP101    no global-state randomness outside ``repro/util/rng.py``
REP102    no bare ``except:`` and no silently swallowed broad excepts
REP201    on-media format literals live only in their owning module
REP301    no lambdas/closures handed to executor-submitted jobs
REP401    every name in the media/codec/executor/distortion/store tables resolves
REP501    ``# lint: guarded-by(<lock>)`` fields touched only under their lock
REP601    benchmark ``*_vs_*`` ratio keys document their direction
========  ====================================================================

Annotation conventions (written in comments, parsed via :mod:`tokenize`):

``# lint: disable=REP101 -- <justification>``
    Suppress the named rule(s) on this line.  The justification text after
    ``--`` is **required**; an unjustified suppression is itself reported
    (REP001).
``# lint: guarded-by(_lock)``
    On an attribute assignment (``self._stream = ...``): declares that the
    field may only be touched while ``self._lock`` is held (checked
    lexically, see :class:`GuardedByRule`).
``# lint: requires-lock(_lock)``
    On a ``def`` line: declares that every caller holds ``self._lock``, so
    accesses to guarded fields inside this method count as guarded.

The module is deliberately stdlib-only (``ast`` + ``tokenize``); linting
never imports the code under analysis, so it runs without numpy/scipy
installed.  The single exception is REP401, which *does* import the
modules that hold the name tables to prove every name resolves — when that
import fails (e.g. no numpy in a minimal checkout) the rule is skipped with
a notice instead of failing the run.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from tokenize import COMMENT, TokenError, generate_tokens
from typing import Callable, Iterable, Iterator

from repro.devtools.contracts import (
    EXECUTOR_SUBMIT_METHODS,
    OWNED_LITERALS,
    RNG_MODULE_SUFFIXES,
)

__all__ = [
    "Finding",
    "Linter",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "RngRule",
    "SilentExceptRule",
    "OwnedLiteralRule",
    "ExecutorPickleRule",
    "RegistryRule",
    "GuardedByRule",
    "default_rules",
    "main",
]

_DISABLE_RE = re.compile(
    r"lint:\s*disable=(?P<ids>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)(?P<rest>.*)"
)
_JUSTIFY_RE = re.compile(r"^\s*--\s*(?P<why>\S.*)$")
_GUARDED_RE = re.compile(r"lint:\s*guarded-by\((?P<lock>[A-Za-z_]\w*)\)")
_REQUIRES_RE = re.compile(r"lint:\s*requires-lock\((?P<lock>[A-Za-z_]\w*)\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation, pointing at a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed module plus the lint annotations found in its comments."""

    path: Path
    relpath: str
    tree: ast.Module
    #: line -> rule ids suppressed on that line (justified ones only).
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: (line, detail) pairs for malformed/unjustified suppressions.
    bad_suppressions: list[tuple[int, str]] = field(default_factory=list)
    #: line -> lock name declared via ``guarded-by(...)``.
    guarded_by: dict[int, str] = field(default_factory=dict)
    #: line -> lock name declared via ``requires-lock(...)``.
    requires_lock: dict[int, str] = field(default_factory=dict)
    #: line -> raw comment text (without the leading ``#``) for every comment.
    comment_lines: dict[int, str] = field(default_factory=dict)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scan_comments(source: str, info: ModuleInfo) -> None:
    """Populate ``info``'s annotation maps from the module's comments."""
    lines = iter(source.splitlines(keepends=True))
    try:
        tokens = list(generate_tokens(lambda: next(lines, "")))
    except (TokenError, IndentationError, SyntaxError):  # ast already parsed;
        return  # a tokenize-only failure just loses comment annotations
    for token in tokens:
        if token.type != COMMENT:
            continue
        text = token.string.lstrip("#").strip()
        line = token.start[0]
        info.comment_lines[line] = text
        match = _DISABLE_RE.search(text)
        if match:
            ids = {part.strip() for part in match.group("ids").split(",")}
            justify = _JUSTIFY_RE.match(match.group("rest"))
            if justify is None:
                info.bad_suppressions.append(
                    (line, f"suppression of {', '.join(sorted(ids))} lacks a "
                           "justification (write `# lint: disable=<id> -- why`)")
                )
            else:
                info.suppressions.setdefault(line, set()).update(ids)
        match = _GUARDED_RE.search(text)
        if match:
            info.guarded_by[line] = match.group("lock")
        match = _REQUIRES_RE.search(text)
        if match:
            info.requires_lock[line] = match.group("lock")


# --------------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------------- #
class Rule:
    """Base class: one named, stable-ID invariant check."""

    id = "REP000"
    title = "base rule"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        return iter(())

    def check_project(self) -> Iterator[Finding]:
        """Yield project-wide findings (after all modules were scanned)."""
        return iter(())

    def notices(self) -> list[str]:
        """Informational messages (e.g. a skipped runtime check)."""
        return []

    @classmethod
    def explain(cls) -> str:
        doc = cls.__doc__ or "(no documentation)"
        return f"{cls.id} — {cls.title}\n\n{textwrap.dedent(doc).strip()}\n"


class RngRule(Rule):
    """No global-state randomness outside ``repro/util/rng.py``.

    Every stochastic component (distortion injection, channel scans, workload
    generation) must derive its randomness from an explicit seed via
    ``repro.util.rng.deterministic_rng`` — per-frame scan streams are seeded
    by ``(seed, lane, frame_index)`` tuples, which is what makes restoration
    batching-, order- and executor-invariant.  A single ``np.random.rand()``
    (or stdlib ``random.random()``) call reintroduces hidden global state and
    silently breaks that reproducibility, so this rule flags:

    * any ``import random`` / ``from random import ...`` of the stdlib module;
    * any *call* through ``numpy.random`` (``np.random.rand(...)``,
      ``np.random.seed(...)``, even ``np.random.default_rng(...)`` — use
      ``deterministic_rng`` instead), under any import alias.

    Type annotations such as ``np.random.Generator`` are attribute loads, not
    calls, and stay allowed.
    """

    id = "REP101"
    title = "no global-state randomness outside util/rng.py"

    def __init__(self, allowed_suffixes: tuple[str, ...] = RNG_MODULE_SUFFIXES):
        self.allowed_suffixes = allowed_suffixes

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath.endswith(self.allowed_suffixes):
            return
        numpy_aliases = {"numpy"}
        numpy_random_aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "numpy":
                        numpy_aliases.add(name.asname or "numpy")
                    elif name.name == "numpy.random":
                        numpy_random_aliases.add(name.asname or "numpy")
                    elif name.name == "random" or name.name.startswith("random."):
                        yield Finding(
                            self.id, module.relpath, node.lineno,
                            "import of the stdlib `random` module (global RNG "
                            "state); seed explicitly via "
                            "repro.util.rng.deterministic_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield Finding(
                        self.id, module.relpath, node.lineno,
                        "import from the stdlib `random` module (global RNG "
                        "state); seed explicitly via "
                        "repro.util.rng.deterministic_rng",
                    )
                elif node.module == "numpy" and node.level == 0:
                    for name in node.names:
                        if name.name == "random":
                            numpy_random_aliases.add(name.asname or "random")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            via_numpy = (
                len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random"
            )
            via_alias = len(parts) >= 2 and parts[0] in numpy_random_aliases and (
                parts[0] != "numpy" or parts[1] != "random"
            )
            if parts[0] in numpy_random_aliases and parts[0] == "numpy":
                via_alias = via_numpy  # plain `import numpy.random` binds `numpy`
            if via_numpy or via_alias:
                yield Finding(
                    self.id, module.relpath, node.lineno,
                    f"call to `{dotted}` uses numpy's global/ad-hoc RNG; derive "
                    "a Generator from an explicit seed via "
                    "repro.util.rng.deterministic_rng",
                )


class SilentExceptRule(Rule):
    """No bare ``except:`` and no silently swallowed broad excepts.

    An archival stack must fail loudly: a swallowed exception during encode
    can stamp a manifest that disagrees with what reached the medium, and one
    during restore can return plausible-but-wrong bytes.  Flagged:

    * ``except:`` with no exception type (also catches ``SystemExit`` /
      ``KeyboardInterrupt``);
    * ``except Exception:`` / ``except BaseException:`` (alone or in a
      tuple) whose body is only ``pass`` / ``...`` — a handler that broad
      must *do* something: log, annotate, re-raise, or convert the error.
    """

    id = "REP102"
    title = "no bare or silently swallowed broad excepts"

    _BROAD = ("Exception", "BaseException")

    @classmethod
    def _is_broad(cls, node: ast.expr | None) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Tuple):
            return any(cls._is_broad(element) for element in node.elts)
        return isinstance(node, ast.Name) and node.id in cls._BROAD

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis
            ):
                continue
            return False
        return True

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    self.id, module.relpath, node.lineno,
                    "bare `except:` (catches SystemExit/KeyboardInterrupt too); "
                    "name the exceptions you can actually handle",
                )
            elif self._is_broad(node.type) and self._is_silent(node.body):
                yield Finding(
                    self.id, module.relpath, node.lineno,
                    "broad except silently swallows the error; handle it, "
                    "convert it, or narrow the exception type",
                )


class OwnedLiteralRule(Rule):
    """On-media format literals live only in their owning module.

    Struct format strings and magic/version byte constants define frozen
    on-media layouts (the container record stream, the DBCoder header, the
    emblem header).  Re-typing one of those literals inline in another module
    creates a duplicate that silently drifts when the owner changes — so each
    literal in :data:`repro.devtools.contracts.OWNED_LITERALS` may only
    appear in its owning module; everyone else imports the named constant.
    (:mod:`repro.devtools` itself is exempt — the contracts table is the
    declaration point.)
    """

    id = "REP201"
    title = "on-media format literals only in their owning module"

    def __init__(
        self,
        owned: dict[bytes | str, str] | None = None,
        exempt_suffixes: tuple[str, ...] = ("repro/devtools/contracts.py",
                                            "repro/devtools/lint.py"),
    ):
        self.owned = dict(OWNED_LITERALS if owned is None else owned)
        self.exempt_suffixes = exempt_suffixes

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath.endswith(self.exempt_suffixes):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if not isinstance(value, (bytes, str)):
                continue
            owner = None
            for literal, literal_owner in self.owned.items():
                # bytes and str never compare equal, so the type check rides
                # on the `in`/== comparison directly.
                if type(literal) is type(value) and literal == value:
                    owner = literal_owner
                    break
            if owner is None or module.relpath.endswith(owner):
                continue
            yield Finding(
                self.id, module.relpath, node.lineno,
                f"inline duplicate of on-media format literal {value!r}; "
                f"import the named constant from its owner ({owner})",
            )


class ExecutorPickleRule(Rule):
    """No lambdas or closures handed to executor-submitted jobs.

    Work handed to ``submit(...)`` / ``map_ordered(...)`` may cross a
    process-pool pickle boundary, and the repo's contract is stronger than
    "it happens to work on threads today": every job callable must be a
    module-level function over plain data, so switching an executor name in
    a config never breaks a pipeline.  Flagged (lexically): passing a
    ``lambda`` or a function *defined inside the enclosing function* as the
    job callable.  Bound methods and module-level functions pass.
    """

    id = "REP301"
    title = "no lambdas/closures submitted as executor jobs"

    def __init__(self, submit_methods: tuple[str, ...] = EXECUTOR_SUBMIT_METHODS):
        self.submit_methods = submit_methods

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        findings: list[Finding] = []
        submit_methods = self.submit_methods
        rule_id = self.id
        relpath = module.relpath

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                #: One set of locally-defined function names per enclosing
                #: function scope (module scope is deliberately absent).
                self.scopes: list[set[str]] = []

            def _visit_function(
                self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
            ) -> None:
                if self.scopes:
                    self.scopes[-1].add(node.name)
                self.scopes.append(set())
                self.generic_visit(node)
                self.scopes.pop()

            visit_FunctionDef = _visit_function
            visit_AsyncFunctionDef = _visit_function

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in submit_methods
                    and node.args
                ):
                    job = node.args[0]
                    if isinstance(job, ast.Lambda):
                        findings.append(Finding(
                            rule_id, relpath, job.lineno,
                            f"lambda passed to `{func.attr}(...)`; executor "
                            "jobs must be module-level functions (picklable "
                            "into process-pool workers)",
                        ))
                    elif isinstance(job, ast.Name) and any(
                        job.id in scope for scope in self.scopes
                    ):
                        findings.append(Finding(
                            rule_id, relpath, job.lineno,
                            f"closure `{job.id}` passed to `{func.attr}(...)`; "
                            "executor jobs must be module-level functions "
                            "(picklable into process-pool workers)",
                        ))
                self.generic_visit(node)

        Visitor().visit(module.tree)
        yield from findings


class RegistryRule(Rule):
    """Every name in the library's name tables resolves at import time.

    The name tables are the in-process half of the paper's self-description
    contract: an archive manifest names its codec/media/store purely by
    string, so a name a table lists that does not resolve (a dangling media
    alias, a key its lookup does not return) is a latent restore failure.
    This rule *imports* the modules that hold the tables —
    :data:`repro.core.profiles.PROFILES` with its aliases, the
    :class:`repro.dbcoder.Profile` names,
    :data:`repro.pipeline.executors.EXECUTORS`,
    :data:`repro.media.distortions.DISTORTIONS` and
    :data:`repro.store.BACKENDS` — and resolves every name and alias through
    the lookup a config uses.

    Unlike the other rules this requires the library's runtime dependencies;
    when the import fails (e.g. numpy is not installed) the check is skipped
    with a notice, never a finding — the parse-only rules still run.
    """

    id = "REP401"
    title = "every name in the name tables must resolve"

    def __init__(self) -> None:
        self._notices: list[str] = []

    def check_project(self) -> Iterator[Finding]:
        try:
            from repro.core.profiles import MEDIA_ALIASES, PROFILES, media_name
            from repro.dbcoder.dbcoder import Profile, codec_name
            from repro.media.distortions import DISTORTIONS, distortion_name
            from repro.pipeline.executors import EXECUTORS, executor_name
            from repro.store import BACKENDS
        except Exception as exc:  # noqa: BLE001 — any import failure means
            # the runtime check cannot run here; parse-only rules still did.
            self._notices.append(
                f"{self.id} skipped: the name tables are not importable ({exc})"
            )
            return
        for alias, target in sorted(MEDIA_ALIASES.items()):
            if target not in PROFILES:
                yield Finding(
                    self.id, "repro.core.profiles.MEDIA_ALIASES", 0,
                    f"alias {alias!r} points at unregistered name {target!r}",
                )
        tables: list[tuple[str, list[str], Callable[[str], str]]] = [
            ("repro.core.profiles.PROFILES", sorted(PROFILES), media_name),
            ("repro.dbcoder.Profile", [profile.name for profile in Profile], codec_name),
            ("repro.pipeline.executors.EXECUTORS", sorted(EXECUTORS), executor_name),
            ("repro.media.distortions.DISTORTIONS", sorted(DISTORTIONS), distortion_name),
            ("repro.store.BACKENDS", sorted(BACKENDS), lambda name: BACKENDS[name].name),
        ]
        for table, names, resolve in tables:
            for name in names:
                try:
                    resolved = resolve(name)
                except Exception as exc:  # noqa: BLE001 — report, don't crash
                    yield Finding(
                        self.id, table, 0, f"name {name!r} does not resolve: {exc}"
                    )
                    continue
                if resolved != name.lower():
                    yield Finding(
                        self.id, table, 0, f"name {name!r} resolves to {resolved!r}"
                    )

    def notices(self) -> list[str]:
        return list(self._notices)


class GuardedByRule(Rule):
    """Fields declared ``# lint: guarded-by(<lock>)`` are touched only under
    their lock.

    Shared handles crossed by threads (the container source's pool of read
    handles, the archive writer's encoder-thread error slot, the server
    segment cache's entries) carry an explicit annotation on the assignment
    that creates them::

        self._stream = open(path, "rb")  # lint: guarded-by(_lock)

    Every *other* lexical access to ``self._stream`` in that class must then
    sit inside ``with self._lock:`` — or inside a method whose ``def`` line
    is annotated ``# lint: requires-lock(_lock)``, which documents (and
    shifts to the callers) the lock obligation.  ``__init__`` is exempt: the
    object is not shared before construction completes.  The check is
    lexical, not a race detector — it proves the *convention* is followed,
    and makes every deliberate exception visible in the diff.
    """

    id = "REP501"
    title = "guarded-by fields accessed only under their lock"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        guarded: dict[str, str] = {}
        for node in ast.walk(cls):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            lock = None
            for line in range(node.lineno, (node.end_lineno or node.lineno) + 1):
                if line in module.guarded_by:
                    lock = module.guarded_by[line]
                    break
            if lock is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guarded[target.attr] = lock
        if not guarded:
            return
        for statement in cls.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if statement.name == "__init__":
                continue
            held: frozenset[str] = frozenset()
            lock = module.requires_lock.get(statement.lineno)
            if lock is not None:
                held = frozenset({lock})
            yield from self._check_body(
                module, statement.body, guarded, held, statement.name
            )

    def _check_body(
        self,
        module: ModuleInfo,
        body: Iterable[ast.stmt],
        guarded: dict[str, str],
        held: frozenset[str],
        method: str,
    ) -> Iterator[Finding]:
        for statement in body:
            yield from self._check_node(module, statement, guarded, held, method)

    def _check_node(
        self,
        module: ModuleInfo,
        node: ast.AST,
        guarded: dict[str, str],
        held: frozenset[str],
        method: str,
    ) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            acquired = set()
            for item in node.items:
                dotted = _dotted_name(item.context_expr)
                if dotted is not None and dotted.startswith("self."):
                    acquired.add(dotted[len("self."):])
            for item in node.items:
                yield from self._check_node(
                    module, item.context_expr, guarded, held, method
                )
            inner = held | frozenset(acquired)
            for statement in node.body:
                yield from self._check_node(module, statement, guarded, inner, method)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function runs later, possibly without the lock.
            inner = frozenset()
            children = node.body if isinstance(node.body, list) else [node.body]
            for child in children:
                yield from self._check_node(module, child, guarded, inner, method)
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in guarded
            and guarded[node.attr] not in held
        ):
            lock = guarded[node.attr]
            yield Finding(
                self.id, module.relpath, node.lineno,
                f"field `self.{node.attr}` is guarded by `self.{lock}` but "
                f"`{method}()` touches it outside `with self.{lock}:` "
                f"(annotate the method `# lint: requires-lock({lock})` if "
                "every caller holds it)",
            )
        for child in ast.iter_child_nodes(node):
            yield from self._check_node(module, child, guarded, held, method)

class RatioDirectionRule(Rule):
    """Benchmark ratio keys named ``*_vs_*`` must document their direction.

    The committed benchmark trajectory gates on JSON fields, and a ratio
    named ``a_vs_b`` reads plausibly in either orientation — the
    ``penalty_vs_healthy`` field was recorded *inverted* for two releases
    because nothing said whether bigger meant faster or slower.  Any string
    literal containing ``_vs_`` used as a dict key (or subscript target) in
    benchmark code must therefore carry a comment within the three lines
    above it (or on its own line) saying ``higher is better`` or ``lower is
    better``.

    Only modules under a ``benchmarks`` directory are checked.
    """

    id = "REP601"
    title = "benchmark *_vs_* ratio keys document their direction"

    #: How far above the key a direction comment may sit.
    LOOKBACK_LINES = 3

    _DIRECTION_RE = re.compile(r"(higher|lower)\s+is\s+better", re.IGNORECASE)

    def _is_benchmark_module(self, module: ModuleInfo) -> bool:
        parts = Path(module.relpath).parts
        return "benchmarks" in parts[:-1]

    def _has_direction_comment(self, module: ModuleInfo, line: int) -> bool:
        for candidate in range(line - self.LOOKBACK_LINES, line + 1):
            text = module.comment_lines.get(candidate)
            if text and self._DIRECTION_RE.search(text):
                return True
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self._is_benchmark_module(module):
            return
        for node in ast.walk(module.tree):
            keys: list[ast.expr] = []
            if isinstance(node, ast.Dict):
                keys = [key for key in node.keys if key is not None]
            elif isinstance(node, ast.Subscript) and isinstance(
                getattr(node, "ctx", None), ast.Store
            ):
                keys = [node.slice]
            for key in keys:
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and "_vs_" in key.value
                ):
                    continue
                if not self._has_direction_comment(module, key.lineno):
                    yield Finding(
                        self.id, module.relpath, key.lineno,
                        f"ratio key {key.value!r} has no direction comment; "
                        "add `# ... higher is better` or `# ... lower is "
                        "better` within the three lines above it",
                    )


def default_rules() -> list[Rule]:
    """The rule set ``python -m repro.devtools.lint`` runs with."""
    return [
        RngRule(),
        SilentExceptRule(),
        OwnedLiteralRule(),
        ExecutorPickleRule(),
        RegistryRule(),
        GuardedByRule(),
        RatioDirectionRule(),
    ]


_ALL_RULE_CLASSES: tuple[type[Rule], ...] = (
    RngRule,
    SilentExceptRule,
    OwnedLiteralRule,
    ExecutorPickleRule,
    RegistryRule,
    GuardedByRule,
    RatioDirectionRule,
)


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]
    notices: list[str]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings


class Linter:
    """Run a rule set over a file tree, applying inline suppressions."""

    def __init__(self, rules: "list[Rule] | None" = None, root: "Path | None" = None):
        self.rules = default_rules() if rules is None else list(rules)
        self.root = Path.cwd() if root is None else Path(root)

    # ------------------------------------------------------------------ #
    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def _collect(self, paths: Iterable["str | Path"]) -> list[Path]:
        files: list[Path] = []
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        return files

    def _parse(self, path: Path) -> "ModuleInfo | Finding":
        relpath = self._relpath(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            return Finding("REP000", relpath, 0, f"cannot read file: {exc}")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return Finding("REP000", relpath, exc.lineno or 0, f"syntax error: {exc.msg}")
        info = ModuleInfo(path=path, relpath=relpath, tree=tree)
        _scan_comments(source, info)
        return info

    # ------------------------------------------------------------------ #
    def run(self, paths: Iterable["str | Path"]) -> LintResult:
        findings: list[Finding] = []
        files = self._collect(paths)
        for path in files:
            parsed = self._parse(path)
            if isinstance(parsed, Finding):
                findings.append(parsed)
                continue
            for line, detail in parsed.bad_suppressions:
                findings.append(Finding("REP001", parsed.relpath, line, detail))
            for rule in self.rules:
                for finding in rule.check_module(parsed):
                    suppressed = parsed.suppressions.get(finding.line, set())
                    if finding.rule not in suppressed:
                        findings.append(finding)
        for rule in self.rules:
            findings.extend(rule.check_project())
        notices = [notice for rule in self.rules for notice in rule.notices()]
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return LintResult(findings=findings, notices=notices, files_checked=len(files))


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _explain(rule_id: str) -> int:
    for rule_cls in _ALL_RULE_CLASSES:
        if rule_cls.id == rule_id:
            print(rule_cls.explain())
            return 0
    known = ", ".join(cls.id for cls in _ALL_RULE_CLASSES)
    print(f"unknown rule {rule_id!r} (known rules: {known})", file=sys.stderr)
    return 2


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Invariant linter for the repo's correctness contracts.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print the rationale of one rule (e.g. --explain REP101) and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule IDs and titles",
    )
    parser.add_argument(
        "--no-registry-check", action="store_true",
        help="skip REP401 (the only rule that imports the library)",
    )
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        for rule_cls in _ALL_RULE_CLASSES:
            print(f"{rule_cls.id}  {rule_cls.title}")
        return 0

    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    rules = default_rules()
    if args.no_registry_check:
        rules = [rule for rule in rules if rule.id != RegistryRule.id]
    result = Linter(rules=rules).run(paths)
    for finding in result.findings:
        print(finding.render())
    for notice in result.notices:
        print(f"note: {notice}", file=sys.stderr)
    if result.findings:
        print(
            f"{len(result.findings)} finding(s) in {result.files_checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"ok: {result.files_checked} file(s) clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
