"""Repository benchmark: Whirlpool's evaluation pipelines, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixes --seed 1 --seconds 20 --trace 0

Each pass of a workload runs in a fresh worker process (``worker.py``)
with a fresh, empty artifact store and a scrubbed environment.  Passes
repeat until ``--seconds`` of timed work and ``MIN_OPS`` operations are
done.  Set-up is sampled ``SETUP_SAMPLES`` times (extra set-up-only
processes fill up what the passes leave).  End-to-end times are scaled
to a reference host speed with two probe kernels timed next to every
operation (``probe.py``); operation service times are process CPU
times.  Every operation's output is compared exactly with the
committed references in ``refs/``.

The last line on stdout is the result object; with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
``--write-refs`` regenerates ``refs/`` from the code in this checkout.
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from perfstats import (  # noqa: E402
    harrell_davis,
    median,
    percentile_summary,
    rolling_median,
    slope,
)
from probe import INTERP, MIXED  # noqa: E402

WORKLOADS = ("mixes", "cold", "online")
MIN_OPS = 100
SETUP_SAMPLES = 5
#: Each operation is scaled by the median of the probes of the nine
#: operations around it (host speed changes over seconds, not per op).
PROBE_HALF_WINDOW = 4
#: Times scaled by the INTERP probe kernel instead of MIXED: those set
#: by interpreter-bound operations.  On ``cold`` the median operation is
#: a Jigsaw or DRRIP job, whose time goes to the convex-hull scan in
#: ``decide``; on ``online`` the slow epochs, which also make up most of
#: the wall, are re-clusters.  Per-pass spreads in README.md, "Host speed".
KERNEL = {
    ("cold", "op_p50_ms"): INTERP,
    ("online", "op_p90_ms"): INTERP,
    ("online", "wall_s"): INTERP,
}
#: No new worker starts after this many seconds, so a run ends well
#: inside the 180 s a run may take.
RUN_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Checkout directories a run must leave exactly as it found them.
GUARDED_DIRS = (".repro_store", ".profile_cache", "benchmarks/results")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def hermetic_env(tmp: Path) -> dict[str, str]:
    """The worker environment: no ``REPRO_*`` variable survives.

    That drops ``$REPRO_PROFILE_CACHE``, ``$REPRO_OBS``, ``$REPRO_FAULTS``,
    ``$REPRO_BENCH_WORKERS``, ``$REPRO_TRACE_DIR`` and ``$REPRO_STORE_DIR``
    (each worker gets a fresh store of its own).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    for var in THREAD_ENV:
        env[var] = str(nproc())
    return env


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file under the guarded directories."""
    out = {}
    for rel in GUARDED_DIRS:
        base = root / rel
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file():
                st = path.stat()
                out[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def host_stamp() -> dict:
    meminfo = {}
    with open("/proc/meminfo") as f:
        for line in f:
            key, __, value = line.partition(":")
            meminfo[key] = value.strip()
    try:
        overcommit = Path("/proc/sys/vm/overcommit_memory").read_text().strip()
    except OSError:
        overcommit = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "mem_total": meminfo.get("MemTotal"),
        "overcommit_memory": overcommit,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Runner:
    """Spawns worker processes for one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: int, quick: bool, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.quick = quick
        self.tmp = tmp
        self.env = hermetic_env(tmp)
        self.started = time.monotonic()
        self.spawned = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, setup_only: bool = False) -> dict:
        self.spawned += 1
        out = self.tmp / f"worker-{self.spawned}.json"
        store = self.tmp / f"store-{self.spawned}"
        env = dict(self.env, REPRO_STORE_DIR=str(store))
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--trace", str(self.trace),
            "--out", str(out),
        ]
        if self.quick:
            cmd.append("--quick")
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(5.0, CHILD_TIMEOUT_S - self.elapsed())
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                env=env,
                cwd=ROOT,
                stdout=sys.stderr,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from None
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(
                f"worker exited with code {proc.returncode}", code=proc.returncode
            )
        with open(out) as f:
            return json.load(f)

    def passes(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Timed passes until ``seconds`` and MIN_OPS are reached.

        Returns the pass reports and the reports that sampled set-up
        (the passes plus set-up-only workers).
        """
        passes: list[dict] = []
        measured = 0.0
        while True:
            report = self.spawn()
            passes.append(report)
            measured += report["wall_s"]
            n_ops = sum(len(p["ops"]) for p in passes)
            if self.quick or (measured >= seconds and n_ops >= MIN_OPS):
                break
            if self.elapsed() + 1.5 * report["wall_s"] > RUN_LIMIT_S:
                break
        setups = list(passes)
        while not self.quick and len(setups) < SETUP_SAMPLES:
            if self.elapsed() + 3 * max(s["setup_s"] for s in setups) > RUN_LIMIT_S:
                break
            setups.append(self.spawn(setup_only=True))
        return passes, setups


def refs_path(workload: str) -> Path:
    return HERE / "refs" / f"{workload}.jsonl"


def load_refs(workload: str, variant: int) -> dict:
    """The reference outputs of one input variant."""
    refs: dict = {"ops": {}, "final": None}
    with open(refs_path(workload)) as f:
        for line in f:
            row = json.loads(line)
            if row["variant"] != variant:
                continue
            if "label" in row:
                refs["ops"][row["label"]] = row["output"]
            else:
                refs["final"] = row["final"]
    return refs


def check(passes: list[dict], refs: dict, quick: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) against the reference outputs."""
    expected = refs["ops"]
    attempted = failed = 0
    problems: list[str] = []
    for report in passes:
        for op in report["ops"]:
            attempted += 1
            if op["error"] is not None:
                failed += 1
                problems.append(f"{op['label']}: {op['error']}")
            elif op["label"] not in expected:
                failed += 1
                problems.append(f"{op['label']}: no reference output")
            elif op["output"] != expected[op["label"]]:
                failed += 1
                problems.append(f"{op['label']}: output differs from the reference")
        if not quick and report["final"] != refs.get("final"):
            problems.append("final clustering differs from the reference")
    return attempted, failed, problems


def at_reference_speed(report: dict, kernel: int) -> tuple[list[float], float]:
    """One pass's operation service times (ms) and wall (s) at reference
    host speed, as measured by one probe kernel (see probe.py).

    Each operation's time is scaled by the kernel's ``probe_ref_s`` over
    the rolling median of its probes timed around the operation.  The
    wall sums the operations' wall times so scaled, plus the time
    between operations scaled by the pass's median probe; the probes'
    own time is left out.  Service times are the operations' process CPU
    times, scaled the same way: CPU time leaves out the time slices the
    host gives other tenants, which a short probe cannot see (its median
    stays put while a 40 ms operation loses a share of its slices).
    """
    ref = report["probe_ref_s"][kernel]
    ops = report["ops"]
    probes = rolling_median([op["probe_s"][kernel] for op in ops], PROBE_HALF_WINDOW)
    wall_s = [op["seconds"] * ref / p for op, p in zip(ops, probes)]
    between = report["wall_s"] - sum(op["seconds"] + sum(op["probe_s"]) for op in ops)
    wall = sum(wall_s) + between * ref / median(probes)
    service_ms = [op["cpu_seconds"] * ref / p * 1e3 for op, p in zip(ops, probes)]
    return service_ms, wall


def end_to_end(workload: str, passes: list[dict], setups: list[dict]) -> dict:
    scaled = {
        kernel: [at_reference_speed(report, kernel) for report in passes]
        for kernel in (MIXED, INTERP)
    }

    def kernel(metric: str) -> int:
        return KERNEL.get((workload, metric), MIXED)

    def op_ms(metric: str) -> list[float]:
        return [ms for op_ms, __ in scaled[kernel(metric)] for ms in op_ms]

    values = {
        "setup_s": median(
            [
                s["setup_s"] * s["probe_ref_s"][MIXED] / s["setup_probe_s"][MIXED]
                for s in setups
            ]
        ),
        "wall_s": median([wall for __, wall in scaled[kernel("wall_s")]]),
        "op_p50_ms": harrell_davis(op_ms("op_p50_ms"), 0.5),
        "op_p90_ms": harrell_davis(op_ms("op_p90_ms"), 0.9),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(workload: str, passes: list[dict], attempted: int, failed: int) -> dict:
    """Per-layer metrics, averaged over the run's passes."""

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    values = {
        name: mean([p["layers"][name] for p in passes]) for name in passes[0]["layers"]
    }
    epoch_slopes = [slope([op["seconds"] * 1e3 for op in p["ops"]]) for p in passes]
    values["online.epoch_ms_slope"] = mean(epoch_slopes) if workload == "online" else 0.0
    values["online.rss_growth_mb"] = mean(
        [p["extra"].get("rss_growth_mb", 0.0) for p in passes]
    )
    values["op_fail_share"] = failed / attempted
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_slope"):
        return "ms/epoch"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def write_refs(workloads: list[str], tmp: Path) -> None:
    """Regenerate refs/: one JSON line per operation output and variant."""
    from scenarios import SCENARIOS

    for workload in workloads:
        rows = []
        for seed in range(SCENARIOS[workload].n_variants):
            report = Runner(workload, seed, 0, False, tmp).spawn()
            bad = [op["label"] for op in report["ops"] if op["error"] is not None]
            if bad:
                raise BenchError(f"{workload} seed {seed}: failed ops {bad}")
            variant = report["variant"]
            rows += [
                {"variant": variant, "label": op["label"], "output": op["output"]}
                for op in sorted(report["ops"], key=lambda op: op["label"])
            ]
            if report["final"] is not None:
                rows.append({"variant": variant, "final": report["final"]})
            print(f"{workload} variant {variant}: {len(report['ops'])} ops", file=sys.stderr)
        with open(refs_path(workload), "w") as f:
            f.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--quick", action="store_true", help="one tiny pass (smoke test)"
    )
    ap.add_argument(
        "--write-refs",
        action="store_true",
        help="regenerate refs/ (all workloads unless --workload is given)",
    )
    args = ap.parse_args(argv)
    if not args.write_refs and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    before = snapshot(ROOT)
    try:
        if args.write_refs:
            write_refs([args.workload] if args.workload else list(WORKLOADS), tmp)
            return 0
        runner = Runner(args.workload, args.seed, args.trace, args.quick, tmp)
        passes, setups = runner.passes(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    if snapshot(ROOT) != before:
        print(
            f"perfbench: the run modified one of {', '.join(GUARDED_DIRS)}",
            file=sys.stderr,
        )
        return 5

    refs = load_refs(args.workload, passes[0]["variant"])
    attempted, failed, problems = check(passes, refs, args.quick)
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    stamp = host_stamp()
    stamp["numpy"] = passes[0]["numpy"]
    stamp.update(passes[0]["extra"].get("host", {}))
    op_ms = [op["cpu_seconds"] * 1e3 for p in passes for op in p["ops"]]
    print("host: " + json.dumps(stamp, sort_keys=True))
    print(
        "detail: "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": len(passes),
                "pass_wall_s": [p["wall_s"] for p in passes],
                "setup_samples_s": [s["setup_s"] for s in setups],
                "probe_median_ms": [
                    [median([op["probe_s"][k] for op in p["ops"]]) * 1e3 for k in (MIXED, INTERP)]
                    for p in passes
                    if p["ops"] and p["ops"][0]["probe_s"] is not None
                ],
                "op_cpu_ms": percentile_summary(op_ms, 0.9),
            }
        )
    )
    metrics = (
        per_layer(args.workload, passes, attempted, failed)
        if args.trace
        else end_to_end(args.workload, passes, setups)
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
