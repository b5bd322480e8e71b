"""Stepping a scheme one interval at a time: decide, then account.

The oracle for ``repro.schemes.base.Scheme.step_batch``, which decides
every interval first and then accounts the whole run as stacked arrays.
No scheme overrides ``step_batch``, so patching this loop onto
``Scheme`` runs ``simulate`` and ``simulate_mix`` the serial way for
every scheme.
"""


def step_batch_reference(
    self, decide_series, actual_series, instructions, n_intervals=None
):
    """``Scheme.step`` per interval, in order: the same contract as ``step_batch``."""
    if n_intervals is None:
        n_intervals = max((len(s) for s in actual_series.values()), default=0)
    return [
        self.step(
            {vc: s[t] for vc, s in decide_series.items()},
            {vc: s[t] for vc, s in actual_series.items()},
            instructions,
        )
        for t in range(n_intervals)
    ]
