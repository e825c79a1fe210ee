"""Seeded end-to-end benchmark of the coronapoly CLI, with a traced replay.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
workload's input is generated from the seed (see workloads.py) into
.perfbench/.  With --trace 0, the CLI runs on that input in its own
process, again and again for up to S seconds, with a trivial CLI call
before each run of it for setup_s and a fixed reference task
(reference.py) after each.  The reference gauges the machine's speed at
that moment: each call's times are scaled by REFERENCE_S over the mean
wall time of the reference processes either side of it, and the medians
of the scaled calls are the end-to-end metrics.  With --trace 1, rounds
of one untraced call and one traced in-process replay (traced.py) run
for up to S seconds, and the medians of the replays' layer metrics are
reported.  A run makes at least one call or round, and starts no other
that would likely end past S.
Every output is checked by the workload's oracles after the timed region.

The last line of stdout is one JSON object: correct, attempted (graphs
submitted), failed (graphs with a missing or wrong result) and metrics.
Exit code 2, with no result line, when ./src/coronapoly is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traced
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
SETUP_ARGV = ["poly", "--family", "path", "--n", "1"]
SETUP_SAMPLES = 7        # at least this many setup calls per --trace 0 run
REFERENCE = [str(HERE / "reference.py")]
REFERENCE_S = 0.1        # wall time of one reference process that the scaled times assume
ROOT_SAMPLE = 6          # bounds graphs re-checked through `roots` against sympy
CALL_TIMEOUT_S = 90
RUN_BUDGET_S = 165       # every call must end by then
MIN_LAYER_SHARE = 0.8    # traced wall time that layer spans below cli.main should cover

END_TO_END = {  # name -> unit
    "graphs_per_s": "1/s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Runner:
    """Spawns CLI calls through spawn.py with a clean environment."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.calls = 0
        # only what the interpreter needs: no CORONAPOLY_MAX_N, no user
        # PYTHON* settings, a fixed hash seed so runs repeat exactly
        self.env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL") if k in os.environ}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def call(self, argv: list[str], script: list[str] | None = None) -> dict:
        """One process: ``python3 -m coronapoly.cli ARGV``, or SCRIPT + ARGV."""
        self.calls += 1
        out = WORK / f"out-{os.getpid()}-{self.calls}.txt"
        program = script if script is not None else ["-m", "coronapoly.cli"]
        timeout = max(1.0, min(CALL_TIMEOUT_S, self.deadline - time.monotonic()))
        launcher = [sys.executable, "-S", "-E", str(HERE / "spawn.py"), str(out), str(timeout),
                    sys.executable, *program, *argv]
        proc = subprocess.run(launcher, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True)
        sample = json.loads(proc.stdout)
        sample["stdout"] = out.read_bytes()
        out.unlink()
        sample["ok"] = sample["exit"] == 0 and not sample["timed_out"]
        return sample


def git_sha() -> str | None:
    try:
        # --git-dir so that a checkout without .git never reports an enclosing repository
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coronapoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_output(name: str, text: str, lines: list[str], origin, runner: Runner) -> int:
    """Graphs with a missing or wrong result in one call's output."""
    size = workloads.WORKLOADS[name].size
    try:
        if name == "bounds":
            failed = workloads.check_bounds_suite(text, lines)
            sample = lines[:: max(1, len(lines) // ROOT_SAMPLE)][:ROOT_SAMPLE]
            sample_path = WORK / "roots-sample.g6"
            sample_path.write_text("\n".join(sample) + "\n")
            reports = runner.call(["roots", "--output", "json", "--input", str(sample_path)])
            return min(size, failed + workloads.check_root_reports(reports["stdout"].decode(), sample))
        if name == "poly-large":
            return workloads.check_poly(text, lines)
        if name == "classify":
            return workloads.check_classes(text, lines, origin)
        return workloads.check_hamidoune(text, size)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        print(f"oracle: malformed {name} output: {exc!r}", file=sys.stderr)
        return size


def failures(name: str, samples: list[dict], lines, origin, runner: Runner) -> int:
    """Oracle-check the first call's output in full; every other call must
    print the same bytes.  A nonzero exit or a timeout fails every graph."""
    size = workloads.WORKLOADS[name].size
    reference = next((s["stdout"] for s in samples if s["ok"]), None)
    failed = 0
    checked: dict[bytes, int] = {}
    for s in samples:
        if not s["ok"]:
            failed += size
            continue
        if s["stdout"] not in checked:
            checked[s["stdout"]] = check_output(name, s["stdout"].decode(), lines, origin, runner)
        failed += checked[s["stdout"]] if s["stdout"] == reference else size
    return failed


def median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run_end_to_end(name, argv, seconds, lines, origin, runner):
    refs = [runner.call([], script=REFERENCE)]
    setup: list[dict] = []
    work: list[dict] = []
    start = time.monotonic()
    while True:
        setup.append(runner.call(SETUP_ARGV))
        work.append(runner.call(argv))
        refs.append(runner.call([], script=REFERENCE))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(work) >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.call(SETUP_ARGV))
        refs.append(runner.call([], script=REFERENCE))
    # A shared host can run 1.5 times slower for stretches that outlast a
    # run, and a slow stretch slows the reference about as much as the CLI.
    # So each call is timed in units of the mean of the reference processes
    # either side of it: that cancels the drift, and a change in the
    # package still shows, since the reference does not use the package.
    scale = [REFERENCE_S * 2 / (a["wall_s"] + b["wall_s"]) for a, b in zip(refs, refs[1:])]
    size = workloads.WORKLOADS[name].size
    attempted = size * len(work)
    failed = failures(name, work, lines, origin, runner)
    if not all(s["ok"] for s in setup + refs):
        failed = attempted
    wall = statistics.median(w["wall_s"] * k for w, k in zip(work, scale))
    metrics = {
        "graphs_per_s": (attempted - failed) / len(work) / wall,
        "wall_s": wall,
        "cpu_s": statistics.median(w["cpu_s"] * k for w, k in zip(work, scale)),
        "peak_rss_mb": median(work, "peak_rss_mb"),
        "setup_s": statistics.median(s["wall_s"] * k for s, k in zip(setup, scale)),
    }
    for key, samples in (("workload call", work), ("setup call", setup), ("reference", refs)):
        walls = sorted(s["wall_s"] for s in samples)
        print(f"{key}: {len(samples)} samples, unscaled wall min {walls[0]:.4f} s, "
              f"median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    return attempted, min(failed, attempted), {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def run_traced(name, argv, seconds, lines, origin, runner):
    replay = workloads.single_process(argv)
    plain: list[dict] = []
    replays: list[dict] = []
    stats_path = WORK / "trace-stats.json"
    start = time.monotonic()
    while True:
        plain.append(runner.call(replay))
        sample = runner.call(replay, script=[str(HERE / "traced.py"), str(stats_path)])
        if sample["ok"]:
            sample["stats"] = json.loads(stats_path.read_text())
        replays.append(sample)
        if time.monotonic() - start + plain[-1]["wall_s"] + sample["wall_s"] >= seconds:
            break
    size = workloads.WORKLOADS[name].size
    attempted = size * len(plain)
    failed = failures(name, plain, lines, origin, runner)
    # the replay must print exactly what the untraced call printed
    failed += size * sum(
        not t["ok"] or t["stdout"] != p["stdout"] for p, t in zip(plain, replays)
    )
    good = [t for t in replays if t["ok"]]
    if not good:
        return attempted, min(failed, attempted), {}
    untraced_wall = median(plain, "wall_s")
    per_replay = [
        traced.layer_metrics(t["stats"], t["wall_s"] - t["stats"]["export_s"], untraced_wall)
        for t in good
    ]
    metrics = {
        k: (statistics.median(m[k] for m in per_replay), unit)
        for k, (unit, *_rest) in traced.LAYER_METRICS.items()
    }
    print(f"traced replays: {len(replays)}, untraced wall median {untraced_wall:.4f} s")
    share = metrics["trace.layer_share"][0]
    if share < MIN_LAYER_SHARE:
        print(f"warning: layer spans cover {share:.1%} of traced wall time, "
              f"below {MIN_LAYER_SHARE:.0%}; the per-layer breakdown misses work", file=sys.stderr)
    return attempted, min(failed, attempted), metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "coronapoly" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'coronapoly'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the oracles use the package's forest DP

    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    WORK.mkdir(exist_ok=True)
    name = args.workload
    lines, origin = workloads.generate(name, args.seed)
    input_path = WORK / f"{name}-{args.seed}.g6"
    data = "".join(line + "\n" for line in lines).encode("ascii")
    input_path.write_bytes(data)
    argv = workloads.WORKLOADS[name].argv(str(input_path.relative_to(ROOT)))
    print(json.dumps({"provenance": {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": name,
        "seed": args.seed,
        "input": {"sha256": hashlib.sha256(data).hexdigest() if lines else None,
                  "graphs": workloads.WORKLOADS[name].size},
        "argv": argv,
    }}))

    runner.call(SETUP_ARGV)  # compiles the package's bytecode before any timing
    run = run_traced if args.trace else run_end_to_end
    attempted, failed, metrics = run(name, argv, args.seconds, lines, origin, runner)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} graphs)")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
