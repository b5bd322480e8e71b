"""One benchmark pass in a fresh process (spawned by ``run.py``).

Builds one workload's inputs (set-up), runs one timed pass, and writes
a JSON report: set-up and pass wall time, every operation's time,
error and output, peak RSS, and with ``--trace 1`` the per-layer
metrics.  ``--setup-only`` stops after set-up, to sample set-up time.

Exit codes: 0 on success, 3 when a workload guard trips, 4 when a layer
shim cannot be installed or (full passes only) a layer the workload
must exercise was never called.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() in the parent just before this process started",
    )
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import numpy as np

    import layershims as shims
    from perfstats import median
    from probe import REFERENCE_S, probe
    from scenarios import SCENARIOS, GuardError

    installed = None
    if args.trace:
        try:
            installed = shims.install()
        except shims.ShimError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 4
    scenario = SCENARIOS[args.workload](args.seed, args.quick)
    report: dict = {
        "setup_s": time.monotonic() - args.spawned_at,
        "setup_probe_s": [median(list(k)) for k in zip(*(probe() for __ in range(5)))],
        "probe_ref_s": list(REFERENCE_S),
        "variant": scenario.variant,
        "numpy": np.__version__,
    }
    if not args.setup_only:
        if installed is not None:
            installed.reset()
        t0 = time.monotonic()
        # Traced passes skip the probe: its time would land in a layer.
        ops = scenario.run(None if installed is not None else probe)
        wall_s = time.monotonic() - t0
        tiers = None
        if installed is not None:
            missing = [] if args.quick else shims.uncalled(installed, args.workload)
            if missing:
                print(f"perfbench: layers never called: {missing}", file=sys.stderr)
                return 4
            report["layers"] = shims.layer_metrics(installed, wall_s)
            tiers = {
                "computed": report["layers"]["sim.profiling.tier_computed"],
                "publish_calls": report["layers"]["store.publish_calls"],
            }
        try:
            scenario.guard(tiers)
            extra = scenario.extra(bool(args.trace))
        except GuardError as exc:
            print(f"perfbench: workload guard tripped: {exc}", file=sys.stderr)
            return 3
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        report.update(
            wall_s=wall_s,
            peak_rss_mb=peak_kb / 1024,
            ops=[asdict(op) for op in ops],
            final=scenario.final(),
            extra=extra,
        )
    with open(args.out, "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
