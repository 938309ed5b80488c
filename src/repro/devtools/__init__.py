"""Developer tooling for the repro archive stack (stdlib-only).

``repro.devtools`` hosts the custom static checks that guard the repo's
correctness contracts — the invariants a generic linter or type checker
cannot express.  Run the invariant linter with::

    python -m repro.devtools.lint [paths...] [--explain REPxxx] [--list-rules]

Rule IDs (stable; see ``--explain`` for full rationales):

- ``REP000`` / ``REP001`` — meta: files must parse; inline suppressions
  (``# lint: disable=<id> -- <why>``) must carry a justification.
- ``REP101`` — no global-state randomness outside ``repro/util/rng.py``.
- ``REP102`` — no bare ``except:`` / silently swallowed broad excepts.
- ``REP201`` — on-media format literals (magics, struct formats) only in
  their owning module; everyone else imports the named constant.
- ``REP301`` — no lambdas/closures handed to executor-submitted jobs.
- ``REP401`` — every name in the media, codec, executor, distortion and
  store tables resolves, and every media alias names a profile.
- ``REP601`` — benchmark ``*_vs_*`` ratio keys carry a "higher/lower is
  better" direction comment.
- ``REP501`` — fields annotated ``# lint: guarded-by(<lock>)`` are only
  touched under ``with self.<lock>:`` (or in methods annotated
  ``# lint: requires-lock(<lock>)``); ``__init__`` is exempt.

This package must stay dependency-light: plain stdlib only, no numpy/scipy
imports at module scope, so the linter can parse the tree in environments
where the library's runtime dependencies are absent.
"""

from __future__ import annotations

__all__: list[str] = []
