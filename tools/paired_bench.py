"""Compare two revisions with ROADMAP's paired-run rule and write ``BENCH_<n>.json``.

    python tools/paired_bench.py --parent HEAD~1 --workload tanks-freerun \\
        --seeds 1401-1410 --claim generate_ms_per_1k --out BENCH_9.json

The parent revision (and ``--change``, when given; by default the working tree
of this checkout) is exported with ``git archive`` into a temporary directory,
removed afterwards.  For every workload and seed the script runs
``perfbench/run.py --seconds 25 --trace 0`` once in each tree, alternating
which tree goes first, one run at a time.  A run that is not ``correct`` or has
failed operations is rejected: its pair is left out of the statistics and
listed under ``rejected``.

For every end-to-end metric of ``BENCHMARK.json`` the output holds both trees'
median and quartiles, the relative change of the medians, whether that change
stays inside the metric's regression bound (not when the change cannot be
computed, ``unresolved`` when the parent's interquartile range is wider than
the bound and not every change run is better than every parent run), and how
many pairs the change won.  A claimed metric (``--claim``, checked on every
workload run) passes when no pair of that workload was rejected, the change
wins at least 9 of every 10 pairs and the gap between the medians exceeds the
parent's interquartile range.  Exits with status 1 when a run was rejected, a
bound was exceeded, a metric was unresolved or a claim failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tanks-train", "tanks-freerun", "linear2-sweep")
SECONDS = 25  # the paired-run rule's run length


def _seeds(text: str) -> list[int]:
    """``"1401-1410"``: an inclusive range of seeds."""
    lo, sep, hi = text.partition("-")
    if not (sep and lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"expected a range like 1401-1410, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def _export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode:
        raise SystemExit(f"git archive {sha} failed with status {proc.returncode}")
    return sha


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run; the last line of its standard output is the result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"correct": False, "failed": None, "metrics": {}}
    doc["status"] = proc.returncode
    if proc.returncode or not doc.get("correct") or doc.get("failed"):
        doc["stderr_tail"] = proc.stderr.strip().splitlines()[-3:]
    return doc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1
                   else (xs[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _compare(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    ps, cs = _quartiles(parent), _quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
    rel = cs["median"] / ps["median"] - 1.0 if ps["median"] else math.nan
    worse = rel if lower else -rel
    # a spread wider than the bound cannot show a regression, unless every run is better
    every_run_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    unresolved = ps["iqr"] > metric["bound"] * abs(ps["median"]) and not every_run_better
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": {**ps, "values": parent}, "change": {**cs, "values": change},
        "rel_change": rel, "within_bound": worse <= metric["bound"],  # false for nan
        "unresolved": unresolved,
        "pairs": len(pairs), "wins": wins, "gain": gain,
        "gain_exceeds_parent_iqr": gain > ps["iqr"],
    }


def _judge(report: dict, claims: list[str]) -> bool:
    """Append one verdict per (claim, workload) to ``report``; True when all holds."""
    ok = not report["rejected"]
    for wl in report["workloads"].values():
        ok = ok and bool(wl["metrics"]) and all(
            m["within_bound"] and not m["unresolved"] for m in wl["metrics"].values())
    for metric in claims:
        for workload, wl in report["workloads"].items():
            rejected = sum(r["workload"] == workload for r in report["rejected"])
            m = wl["metrics"].get(metric)
            passed = (m is not None and not rejected
                      and m["wins"] >= math.ceil(0.9 * m["pairs"])
                      and m["gain_exceeds_parent_iqr"])
            entry = {"workload": workload, "metric": metric, "rejected_runs": rejected}
            if m is not None:
                entry.update({
                    "pairs": m["pairs"], "wins": m["wins"],
                    "parent_median": m["parent"]["median"],
                    "change_median": m["change"]["median"], "gain": m["gain"],
                    "parent_iqr": m["parent"]["iqr"]})
            report["claims"].append({**entry, "verdict": "pass" if passed else "fail"})
            ok = ok and passed
    report["verdict"] = "pass" if ok else "fail"
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision, e.g. HEAD~1")
    parser.add_argument("--change", help="revision of the change (default: the working tree)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, required=True,
                        help="repeat for several workloads")
    parser.add_argument("--seeds", type=_seeds, required=True, help='e.g. "1401-1410"')
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC",
                        help="a claimed gain, checked on every workload run")
    parser.add_argument("--out", type=Path, required=True, help="e.g. BENCH_9.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent"}
        revs = {"parent": _export(args.parent, trees["parent"])}
        if args.change:
            trees["change"] = Path(tmp) / "change"
            revs["change"] = _export(args.change, trees["change"])
        else:
            trees["change"] = ROOT
            revs["change"] = "working tree"
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

        report = {
            "rule": "paired runs, alternating order; a claim needs >= 9/10 wins and a "
                    "median gap above the parent's interquartile range",
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "host": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                     "python": platform.python_version(), "numpy": metadata.version("numpy")},
            "revisions": revs, "seconds": SECONDS, "trace": 0,
            "workloads": {}, "claims": [], "rejected": [],
        }
        for workload in args.workload:
            pairs, order = [], []
            for i, seed in enumerate(args.seeds):
                first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                res = {}
                for side in (first, second):
                    res[side] = _run(trees[side], workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps({k: v["value"] for k, v in
                                        res[side].get("metrics", {}).items()}), flush=True)
                bad = [side for side, r in res.items()
                       if r["status"] or not r.get("correct") or r.get("failed") != 0]
                if bad:
                    report["rejected"].extend({"workload": workload, "seed": seed, "tree": side,
                                               "result": res[side]} for side in bad)
                    continue
                pairs.append((res["parent"], res["change"]))
                order.append(first)
            report["workloads"][workload] = {
                "seeds": args.seeds, "first": order,
                "attempted": {side: sum(p[j].get("attempted", 0) for p in pairs)
                              for j, side in enumerate(("parent", "change"))},
                "metrics": ({m["name"]: _compare(pairs, m) for m in spec["end_to_end"]}
                            if pairs else {}),
            }
    ok = _judge(report, args.claim)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{report['verdict']}: wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
