"""Reference implementations that the fast paths in ``src/`` are tested against.

Each oracle is the plain, obviously-correct form of an operation whose
production implementation is optimised.  They live here, not in ``src/``, so
the package keeps one implementation per operation while the tests keep an
independent model to compare it with (``tests/test_layering.py`` checks that
no ``*_reference`` function is left in ``src/`` and that nothing there
imports this package).  One module per source module:

- :mod:`oracles.dynarisc_reference` — the per-step DynaRisc interpreter
  (for :mod:`repro.dynarisc.emulator`);
- :mod:`oracles.emblem` — the per-emblem renderer and the per-image scan
  decoder, ``EmblemSampler`` (for :mod:`repro.mocoder.emblem`);
- :mod:`oracles.interleave` — the single-emblem codeword interleave and its
  inverse (for :mod:`repro.mocoder.interleave`);
- :mod:`oracles.letters` — the per-byte Bootstrap letter encoder (for
  :mod:`repro.bootstrap.letters`);
- :mod:`oracles.lz77` — the exhaustive window matcher and the dict-filed
  LZSS compressor (for :mod:`repro.dbcoder.lz77`);
- :mod:`oracles.manchester` — the per-bit and single-stream Manchester
  coders (for :mod:`repro.mocoder.manchester`);
- :mod:`oracles.outer_code` — the row-at-a-time GF(256) matrix product (for
  :mod:`repro.mocoder.outer_code`);
- :mod:`oracles.reed_solomon` — the LFSR encoder, Horner syndromes and the
  per-block corrector (for :mod:`repro.mocoder.reed_solomon`).

pytest puts ``tests/`` on ``sys.path``, so tests import these as
``oracles.<module>``; a script outside pytest adds ``tests/`` itself (see
``benchmarks/bench_pipeline.py``).
"""
