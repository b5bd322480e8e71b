"""Developer tooling: deterministic fault injection for chaos tests.

:mod:`repro.devtools.faults` injects seeded, reproducible failures at
named runtime sites, armed only through ``$REPRO_FAULTS``.  The repo's
other invariants (oracle pairings, fingerprint inputs, atomic publishes,
span pairing) are held by the design and by tier-1 tests; CONTRIBUTING.md
names the test or helper behind each.
"""
