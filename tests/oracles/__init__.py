"""Reference implementations that the fast paths in ``src/`` are tested against.

Each oracle is the plain, obviously-correct form of an operation whose
production implementation is optimised.  They live here, not in ``src/``, so
the package keeps one implementation per operation while the tests keep an
independent model to compare it with.
"""
