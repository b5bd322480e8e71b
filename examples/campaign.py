#!/usr/bin/env python3
"""Campaign engine: a parallel, resumable 3-app × 3-scheme grid.

Declares a Campaign over (MIS, dict, lbm) × (LRU, Jigsaw, Whirlpool),
runs it on a 4-process pool against an append-only JSON-lines store,
then demonstrates resume-after-interrupt: the store is truncated to
mimic a run killed partway through, and resubmitting executes only the
missing jobs.

Run:  python examples/campaign.py
"""

import tempfile
from pathlib import Path

from repro.exp import Campaign, ResultStore, campaign_status, run_campaign


def main() -> None:
    campaign = Campaign(
        name="demo-grid",
        apps=["MIS", "dict", "lbm"],
        schemes=["LRU", "Jigsaw", "Whirlpool"],
        configs=["4core"],
        scale="train",
    )
    jobs = campaign.jobs()
    print(f"{campaign.name}: {len(jobs)} jobs, e.g. {jobs[0].app}/{jobs[0].scheme}")

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
        store_path = Path(tmp) / "results.jsonl"

        # 1. Run the whole grid on 4 worker processes.  Workers share the
        #    on-disk profile cache, so the three schemes of one app pay for
        #    its profiling once.
        report = run_campaign(campaign, store_path, workers=4)
        print(f"first run : {report.executed} executed, {report.skipped} skipped")

        # 2. Simulate a mid-run interrupt: keep only the first 4 records.
        lines = store_path.read_text().splitlines()
        store_path.write_text("\n".join(lines[:4]) + "\n")
        status = campaign_status(campaign, store_path)
        print(f"interrupted: {status['done']}/{status['total']} done")

        # 3. Resubmitting is the resume: the store skips finished jobs.
        report = run_campaign(campaign, store_path, workers=4)
        print(f"resume     : {report.executed} executed, {report.skipped} skipped")

        # 4. Export the result table straight from the store.
        print("\n" + ResultStore(store_path).export_table(metric="cycles"))


if __name__ == "__main__":
    main()
