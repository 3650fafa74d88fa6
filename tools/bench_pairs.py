#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written to ``BENCH_<workload>.json``.

Each commit is unpacked with ``git archive`` into a directory of its own,
with a ``.git/HEAD`` that names it, which is where ``bench/run.py`` reads
the commit it records. Then ``bench/run.py`` runs from each copy with the
same flags, in alternating pairs: odd pairs run the parent first, even
pairs the change. A pair list per seed is given as ``SEED:PAIRS``; the
summary is kept per seed, as a claim is checked on the seed it was made
on and again on a seed not used while the change was written.

    python tools/bench_pairs.py PARENT CHANGE --workload trends \\
        --pairs 1:10 --pairs 2:3 --seconds 20 --what "what the change does"

The output has the keys ``workload``, ``command``, ``what``, ``parent``,
``change``, ``machine``, ``summary`` (by seed: each end-to-end metric's
values by side, their medians and quartiles, and the number of pairs in
which the change read lower; the fingerprint states and failed counts
seen) and ``pairs`` (each run's result and record lines).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "batch_s", "word_accuracy", "peak_rss_mib")
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def unpack(commit: str, into: Path) -> Path:
    """The tree of ``commit`` in the new directory ``into``."""
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=_git("archive", commit), check=True)
    (into / ".git").mkdir()
    (into / ".git" / "HEAD").write_text(commit + "\n", encoding="ascii")
    return into


def bench_argv(workload: str, seed: int, seconds: float) -> list[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(tree: Path, argv: list[str]) -> dict:
    """The record and result lines of one ``bench/run.py`` run from ``tree``."""
    out = subprocess.run([sys.executable, *argv], cwd=tree, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    return {"result": json.loads(out[-1]), "record": json.loads(out[-2])}


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict]) -> dict:
    """Each metric's values by side, medians, quartiles and the pairs in
    which the change read lower; the fingerprint states and failed counts."""
    summary: dict = {}
    for name in METRICS:
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        entry: dict = dict(values)
        for side in SIDES:
            entry[f"{side}_median"] = statistics.median(values[side])
            entry[f"{side}_q1"], entry[f"{side}_q3"] = quartiles(values[side])
        entry["change_lower_in"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        summary[name] = entry
    summary["pairs"] = len(pairs)
    summary["fingerprints"] = sorted({c["fingerprint"] for p in pairs for side in SIDES
                                      for c in p[side]["record"]["commands"].values()})
    summary["failed"] = sorted({p[side]["result"]["failed"] for p in pairs for side in SIDES})
    return summary


def _seed_pairs(text: str) -> tuple[int, int]:
    seed, _, count = text.partition(":")
    return int(seed), int(count)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent commit")
    ap.add_argument("change", help="the changed commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=_seed_pairs, action="append", required=True,
                    metavar="SEED:PAIRS", help="run PAIRS pairs at benchmark seed SEED")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--what", default="", help="what the change does, for the reader")
    args = ap.parse_args(argv)
    commits = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
               for side, ref in zip(SIDES, (args.parent, args.change))}
    out = ROOT / f"BENCH_{args.workload}.json"
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: unpack(commits[side], Path(tmp) / side) for side in SIDES}
        pairs = []
        for seed, count in args.pairs:
            command = bench_argv(args.workload, seed, args.seconds)
            for k in range(1, count + 1):
                order = SIDES if k % 2 else SIDES[::-1]
                pair: dict = {"seed": seed, "pair": k, "order": list(order)}
                for side in order:
                    pair[side] = run_once(trees[side], command)
                pairs.append(pair)
                got = {side: pair[side]["result"]["metrics"]["batch_s"]["value"]
                       for side in SIDES}
                print(f"seed {seed} pair {k}: batch_s parent {got['parent']:.4f} "
                      f"change {got['change']:.4f}", file=sys.stderr)
    env = pairs[0]["parent"]["record"]["environment"]
    doc = {
        "workload": args.workload,
        "command": "python3 " + " ".join(bench_argv(args.workload, 0, args.seconds)).replace(
            "--seed 0", "--seed SEED"),
        "what": args.what,
        "parent": commits["parent"],
        "change": commits["change"],
        "machine": f"{env['nproc']}-CPU {env['cpu']}, CPython {env['python']}, numpy "
                   f"{env['numpy']}; each side run from its own unpacked copy of the tree, "
                   "alternating, odd pairs parent first",
        "summary": {str(seed): summarize([p for p in pairs if p["seed"] == seed])
                    for seed, _ in args.pairs},
        "pairs": pairs,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
