"""Self-test of the benchmark's output checks: genuine outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Runs small versions of the four workloads through ``circulab.cli.dispatch``,
checks their outputs, then corrupts one value at a time (and, for the census,
the program's own count) and requires the checks to catch every corruption.
Takes a few seconds; the file name keeps it out of pytest's collection.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from circulab import arithmetic, cli  # noqa: E402

import workloads as wl  # noqa: E402

SMALL = {
    "table1": wl.table1_calls(1, 0, two_n=64, trials=3, deep=3),
    "interlace": wl.interlace_calls(1, 0, sizes=(8, 16), trials=2),
    "tails": wl.tails_calls(1, 0, sizes=(16, 64), sigmax_trials=wl.FINE_GRID_SAMPLES, sigmin_trials=20),
    "census": wl.census_calls(1, 0, max_m=60),
}


def edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    head = lines[0] if lines[0].startswith("#") else ""
    rows = list(csv.DictReader(lines[1:] if head else lines))
    edit(rows)
    with open(path, "w", newline="") as fh:
        fh.write(head)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def scale(rows, column, factor, index=0):
    rows[index][column] = repr(float(rows[index][column]) * factor)


def sigmin_s_and_mean(out: Path) -> None:
    """A wrong sigma_min(S) with a summary made consistent with it: only the dense oracle sees it."""
    vals = []

    def edit(rows):
        scale(rows, "sigmin_S", 1 + 1e-6)
        vals.extend(float(r["sigmin_S"]) for r in rows if r["sigmin_S"])

    edit_csv(out / "table1_normal_trials.csv", edit)
    edit_json(out / "table1_normal_summary.json", lambda d: d["summary"].update(mean=float(np.mean(vals))))


def shifted_bracket(out: Path) -> None:
    """Both ends of one bracket moved up 1%: the ratio still holds, the finer grid does not."""
    def edit(rows):
        scale(rows, "ratio_lower", 1.01)
        scale(rows, "ratio_upper", 1.01)
    edit_csv(out / "sigmax_normal_ratios.csv", edit)


def non_monotone_exceedance(out: Path) -> None:
    def edit(d):
        pts = [p for p in d["tail"]["points"] if p["n"] == 16]
        pts[0]["exceedance"], pts[-1]["exceedance"] = 1.0, 0.0
    edit_json(out / "sigmin_normal_summary.json", edit)


@contextlib.contextmanager
def miscounting_census():
    real = arithmetic.gcd_census

    def wrong(m, y):
        res = real(m, y)
        return type(res)(res.M, res.y, res.exact_count + (m == 60), res.totient_sum)
    arithmetic.gcd_census = wrong
    try:
        yield
    finally:
        arithmetic.gcd_census = real


CORRUPTIONS = [
    ("table1: sigmin_S off by 1e-6, summary kept consistent", "table1", sigmin_s_and_mean),
    ("table1: sigma_max off by 1e-6", "table1",
     lambda o: edit_csv(o / "table1_uniform_trials.csv", lambda r: scale(r, "sigma_max", 1 + 1e-6))),
    ("table1: summary mean changed", "table1",
     lambda o: edit_json(o / "table1_bernoulli_summary.json", lambda d: d["summary"].update(mean=1.0))),
    ("interlace: one violation reported", "interlace",
     lambda o: edit_json(o / "interlace_normal_summary.json", lambda d: d.update(violations=1))),
    ("interlace: smallest clause-a margin off", "interlace",
     lambda o: edit_json(o / "interlace_rademacher_summary.json",
                         lambda d: d["margin_summaries"]["a"].update(min=d["margin_summaries"]["a"]["min"] + 1e-6))),
    ("interlace: sigma_min off by 1e-6", "interlace",
     lambda o: edit_csv(o / "interlace_normal_n16_trials.csv", lambda r: scale(r, "sigma_min", 1 + 1e-6, 1))),
    ("tails: ratio_upper / ratio_lower off", "tails",
     lambda o: edit_csv(o / "sigmax_rademacher_ratios.csv", lambda r: scale(r, "ratio_upper", 1 + 1e-9, 1))),
    ("tails: bracket above the fine-grid maximum", "tails", shifted_bracket),
    ("tails: exceedance decreasing in eps", "tails", non_monotone_exceedance),
    ("tails: sigma_max below |sum xi|", "tails",
     lambda o: edit_csv(o / "sigmax_normal_n64_trials.csv", lambda r: scale(r, "sigma_max", 1e-3, 1))),
    ("census: nonzero margin", "census",
     lambda o: edit_csv(o / "lemma_gcd-census.csv", lambda r: r[57].update(margin="1"))),
    ("census: missing row", "census", lambda o: edit_csv(o / "lemma_gcd-census.csv", lambda r: r.pop())),
]


def problems(name: str, out: Path) -> list[str]:
    ck = wl.Checker()
    rng = np.random.default_rng(0)
    for call in SMALL[name]:
        call.verify(ck, out, rng)
    return ck.problems


def main() -> int:
    base = HERE / "out" / f"selftest-{os.getpid()}"
    failures = []
    try:
        for name, calls in SMALL.items():
            for call in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.dispatch(["--out", str(base / name), *call.argv])
                if code != 0:
                    failures.append(f"{name}: {' '.join(call.argv)} exited {code}")
            found = problems(name, base / name)
            if found:
                failures.append(f"{name}: genuine output rejected: {found[:3]}")
        cases = [(label, name, corrupt, contextlib.nullcontext) for label, name, corrupt in CORRUPTIONS]
        cases.append(("census: program miscounts gcd(k, 60) >= y", "census", lambda o: None, miscounting_census))
        for i, (label, name, corrupt, context) in enumerate(cases):
            out = base / f"corrupt{i}"
            shutil.copytree(base / name, out)
            corrupt(out)
            with context():
                caught = problems(name, out)
            print(f"{'caught' if caught else 'MISSED'}: {label}" + (f" ({caught[0][:100]})" if caught else ""))
            if not caught:
                failures.append(f"corruption not detected: {label}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for failure in failures:
        print(f"selftest: FAILED: {failure}", file=sys.stderr)
    print(f"selftest: {'ok' if not failures else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
