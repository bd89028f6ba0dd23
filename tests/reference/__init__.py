"""Slow twins: the executable specifications of the simulator's fast paths.

Each module keeps the straightforward body that a fast path in ``src/``
replaced, so differential tests can require the two to agree:

- :mod:`tests.reference.stores`: the per-slot store with no watermark,
  the per-(owner, storer) commit loop, and the per-store commit and
  reseed loops a :class:`~repro.storage.CPUStoreFleet` replaces;
- :mod:`tests.reference.planner`: the per-rank recovery planner;
- :mod:`tests.reference.placement`: the fleet-scan placement queries;
- :mod:`tests.reference.auditor`: the two-pass recovery auditor.

Nothing in ``src/`` imports these; they exist for the tests alone.
"""
