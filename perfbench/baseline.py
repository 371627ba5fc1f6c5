"""One-shot baseline report: the large single cases, timed with the harness.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --out perfbench/results/baseline.json

This is not a workload and nothing gates on it.  It times the single
calls that are too slow for a benchmark run, so that work on them starts
from a number the harness made:

* ``decompose_enhanced`` at ell = 1, dimension 12, cold (the program's
  caches emptied first) and warm (the same label again, under a different
  base change);
* ``enumerate_striped`` at (ell, n) = (4, 3) and (3, 4);
* ``nilquiver translate --from label --to johnson`` at (ell, n) = (4, 3).

Every answer is checked exactly, as in the workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import seeded_rng, clear_program_caches, cli_call, disguised_rep_json, dump  # noqa: E402

#: Seed of the baseline's inputs, and labels timed at ell = 1, dimension 12.
BASELINE_SEED = 1
BASELINE_LABELS = 3

def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "results" / "baseline.json")
    args = parser.parse_args(argv)
    pkg = run.load_program()
    rng = seeded_rng("baseline", BASELINE_SEED)
    rows = []
    failures = 0

    framed = [lb for lb in pkg.enumerate_orbit_labels(12, 1) if lb.lam.size]
    for label in rng.sample(framed, BASELINE_LABELS):
        want = label.to_json()
        for state in ("cold", "warm"):
            rep = pkg.QuiverRep.from_json(disguised_rep_json(pkg, label, rng))
            if state == "cold":
                clear_program_caches(pkg)
            seconds, got = timed(pkg.decompose_enhanced, rep)
            ok = got.label().to_json() == want
            failures += not ok
            rows.append({"case": f"decompose_enhanced ell=1 dim=12 {state}", "label": str(label),
                         "seconds": seconds, "ok": ok})

    for ell, n in ((4, 3), (3, 4)):
        seconds, found = timed(pkg.enumerate_striped, ell, pkg.delta(ell, n))
        count = len(pkg.enumerate_orbit_labels(n, ell))
        ok = len(found) == count
        failures += not ok
        rows.append({"case": f"enumerate_striped ell={ell} n={n}", "results": len(found),
                     "seconds": seconds, "ok": ok})

    work = run.ROOT / ".perfbench" / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    label = rng.choice(pkg.enumerate_orbit_labels(3, 4))
    source = work / "label.json"
    source.write_text(dump(label.to_json()), encoding="utf-8")
    seconds, (code, out) = timed(cli_call, pkg, ["translate", "--from", "label", "--to", "johnson",
                                                 "--input", str(source)])
    ok = code == 0 and pkg.striped_label(pkg.StripedBipartition.from_json(json.loads(out), 4)) == label
    failures += not ok
    rows.append({"case": "cli translate label->johnson ell=4 n=3", "label": str(label),
                 "seconds": seconds, "ok": ok})

    env = run.environment(argparse.Namespace(seed=BASELINE_SEED, trace=0, workload="baseline", seconds=None))
    cold = [r["seconds"] for r in rows if r["case"].endswith("cold")]
    warm = [r["seconds"] for r in rows if r["case"].endswith("warm")]
    report = {
        "environment": env,
        "rows": rows,
        "median_cold_s": statistics.median(cold),
        "median_warm_s": statistics.median(warm),
        "failures": failures,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(f"{row['case']:<45} {row['seconds']:9.3f} s  {'ok' if row['ok'] else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
