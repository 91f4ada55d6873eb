"""The four benchmark workloads: the CLI calls of one pass and the checks on their outputs.

A pass is a fixed list of ``circulab`` commands.  Pass ``p`` of a run with
seed ``s`` gives call ``i`` the master seed ``pass_seed(s, p, i)``, so every
pass draws fresh trials and the same seed always gives the same inputs.

Every check recomputes its reference value without circulab: coefficient rows
are replayed from the documented per-trial stream (Philox keyed by
``SeedSequence(master_seed, spawn_key=(dimension, trial))``, 53-bit uniforms,
inverse-CDF Gaussians), spectra come from numpy's FFT and singular values from
LAPACK through numpy.  Numeric checks use tolerances and never compare bytes,
because LAPACK-backed results change in the last digits with the BLAS thread
count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtri

LAWS = ("bernoulli", "rademacher", "uniform", "normal")

TABLE1_TWO_N = 2048
TABLE1_TRIALS = 1          # per law and pass
TABLE1_DEEP = 1            # trials re-solved by dense inversion, per law of the first pass
                           # whose index has the parity of the seed (one discrete, one continuous)

INTERLACE_LAWS = ("normal", "rademacher")
INTERLACE_SIZES = (8, 16, 32, 64, 128)
INTERLACE_TRIALS = 1       # per size, law and pass
INTERLACE_CAUCHY_TRIALS = 8  # the CLI's run_interlacing_suite default

TAILS_LAWS = ("rademacher", "normal")   # criterion c05
TAILS_SIZES = (256, 1024, 4096)
TAILS_OVERSAMPLING = 64
SIGMAX_TRIALS = 40         # per size, law and pass
SIGMIN_TRIALS = 400        # per size and pass, normal law (criterion c06)
SIGMIN_RHO = 0.2
SIGMIN_EPS = (0.1, 0.5, 1.0, 2.0)
REPLAY_SAMPLES = 12        # tails trials per size and call whose rows are replayed
FINE_GRID_SAMPLES = 2      # of those, sigmax trials whose bracket is checked on a 2x finer grid

CENSUS_MAX_M = 10_000
CENSUS_SAMPLES = 64        # values of M whose exact counts are checked against the sieve


def pass_seed(seed: int, p: int, i: int) -> int:
    """Master seed of call ``i`` in pass ``p`` of a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, p, i]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# independent replay of the inputs


def stream(master_seed: int, *key: int) -> tuple[np.random.Generator, int]:
    """Per-trial Philox generator and its recorded 64-bit seed word."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss)), int(ss.generate_state(1, np.uint64)[0])


def draw(gen: np.random.Generator, law: str, size: int) -> np.ndarray:
    u = (gen.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53
    if law == "bernoulli":
        return (u < 0.5).astype(float)
    if law == "rademacher":
        return np.where(u < 0.5, 1.0, -1.0)
    if law == "uniform":
        return u
    return ndtri(u)


def circulant(row: np.ndarray) -> np.ndarray:
    j = np.arange(row.size)
    return row[(j[None, :] - j[:, None]) % row.size]


def toeplitz_embedding_row(master_seed: int, law: str, n: int, t: int) -> tuple[np.ndarray, int]:
    """First row of C_2n for interlace trial t: (xi_0..xi_{n-1}, xi_*, xi_{-n+1}..xi_{-1})."""
    gen, word = stream(master_seed, n, t)
    vals = draw(gen, law, 2 * n - 1)      # xi_{-(n-1)} .. xi_{n-1}
    xi_star = draw(gen, law, 1)
    return np.concatenate([vals[n - 1:], xi_star, vals[: n - 1]]), word


def totients(limit: int) -> np.ndarray:
    phi = np.arange(limit + 1)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


# ---------------------------------------------------------------------------
# reading outputs


class Checker:
    """Collects the problems found in one run's outputs."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return bool(ok)

    def close(self, got, want: float, what: str, rtol: float = 0.0, atol: float = 0.0) -> bool:
        ok = got is not None and abs(got - want) <= atol + rtol * abs(want)
        return self.expect(ok, f"{what}: got {got!r}, want {want!r}")


def num(text: str) -> float | None:
    return None if text == "" else float(text)


def read_trials(path: Path) -> tuple[dict, list[dict]]:
    with open(path, newline="") as fh:
        head = fh.readline()
        if not head.startswith("# config: "):
            raise ValueError(f"{path.name}: missing config echo")
        return json.loads(head[len("# config: "):]), list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_echo(ck: Checker, config: dict, what: str, law: str, **want) -> None:
    """The config block echoed into an output matches the command that wrote it."""
    got = {k: config.get(k) for k in want}
    got["law"], want["law"] = config.get("distribution", {}).get("kind"), law
    ck.expect(got == want, f"{what}: config echo {got} != {want}")


def check_trial_ids(ck: Checker, rows: list[dict], trials: int, what: str) -> None:
    ck.expect([r["trial"] for r in rows] == [str(t) for t in range(trials)],
              f"{what}: trial column is not 0..{trials - 1}")


def check_extremes(ck: Checker, r: dict, mags: np.ndarray, what: str) -> bool:
    """sigma_max / sigma_min of a circulant against max / min |FFT(row)|; True when singular."""
    smax, smin = float(mags.max()), float(mags.min())
    ck.close(num(r["sigma_max"]), smax, f"{what} sigma_max", rtol=1e-10)
    ck.close(num(r["sigma_min"]), smin, f"{what} sigma_min", atol=1e-10 * smax)
    cutoff = 1e-12 * mags.size * smax  # the program's singular tolerance
    singular = smin <= cutoff
    if singular:  # inf, or a huge ratio when roundoff left sigma_min above zero
        kappa = num(r["kappa"])
        ck.expect(kappa is not None and kappa >= 0.5 * smax / cutoff, f"{what}: singular but kappa {kappa!r}")
    else:
        ck.close(num(r["kappa"]), smax / smin, f"{what} kappa", rtol=1e-8)
    return singular


# ---------------------------------------------------------------------------
# table1: sigma_min of the Schur block at 2n = 2048


def check_table1(ck: Checker, out: Path, rng: np.random.Generator, *, law: str,
                 master_seed: int, two_n: int, trials: int, deep: int) -> None:
    what = f"table1 {law} seed {master_seed}"
    config, rows = read_trials(out / f"table1_{law}_trials.csv")
    check_echo(ck, config, what, experiment="table1", n=two_n, trials=trials,
               master_seed=master_seed, law=law)
    check_trial_ids(ck, rows, trials, what)
    n = two_n // 2
    kept = []
    singular = 0
    for t, r in enumerate(rows[:trials]):
        tag = f"{what} trial {t}"
        gen, word = stream(master_seed, two_n, t)
        row = draw(gen, law, two_n)
        ck.expect(r["seed"] == str(word), f"{tag}: seed {r['seed']} != {word}")
        mags = np.abs(np.fft.fft(row))
        flags = r["flags"].split(";") if r["flags"] else []
        if check_extremes(ck, r, mags, tag):
            singular += 1
            ck.expect("singular-embedding" in flags and r["sigmin_S"] == "",
                      f"{tag}: singular embedding not flagged")
            continue
        s = num(r["sigmin_S"])
        if not ck.expect(s is not None and s > 0 and "singular-embedding" not in flags,
                         f"{tag}: sigmin_S {r['sigmin_S']!r} with flags {flags}"):
            continue
        # sigma_min(S) <= ||S|| <= ||C^{-1}|| = 1 / sigma_min(C_2n)
        ck.expect(s / two_n <= (1.0 + 1e-9) / mags.min(),
                  f"{tag}: sigmin_S / 2n = {s / two_n!r} above 1 / sigma_min(C) = {1 / mags.min()!r}")
        kept.append((s, row))
    summary = read_json(out / f"table1_{law}_summary.json")
    ck.expect(summary.get("singular_count") == singular,
              f"{what}: singular_count {summary.get('singular_count')} != {singular}")
    stats = summary.get("summary")
    if not kept:
        ck.expect(stats is None, f"{what}: summary {stats} without a non-singular trial")
    elif ck.expect(stats is not None and stats.get("count") == len(kept), f"{what}: summary {stats}"):
        ck.close(stats.get("mean"), float(np.mean([s for s, _ in kept])), f"{what} summary mean", rtol=1e-12)
    for k in rng.permutation(len(kept))[:deep]:
        s, row = kept[k]
        inv = np.linalg.inv(circulant(row))
        sv = np.linalg.svd(inv[n:, n:], compute_uv=False)
        ck.close(s / two_n, float(sv[-1]), f"{what} sigmin_S vs dense inversion", rtol=1e-8)


def table1_calls(seed: int, p: int, *, two_n: int = TABLE1_TWO_N, trials: int = TABLE1_TRIALS,
                 deep: int = TABLE1_DEEP) -> list["Call"]:
    calls = []
    for i, law in enumerate(LAWS):
        ms = pass_seed(seed, p, i)
        argv = ("experiment", "table1", "--dist", law, "--two-n", str(two_n),
                "--trials", str(trials), "--seed", str(ms))
        deep_here = deep if p == 0 and i % 2 == seed % 2 else 0
        calls.append(Call(argv, partial(check_table1, law=law, master_seed=ms, two_n=two_n,
                                        trials=trials, deep=deep_here)))
    return calls


# ---------------------------------------------------------------------------
# interlace: embedding interlacing inequalities, dense SVDs up to n = 128


def check_interlace(ck: Checker, out: Path, rng: np.random.Generator, *, law: str,
                    master_seed: int, sizes: tuple[int, ...], trials: int) -> None:
    what = f"interlace {law} seed {master_seed}"
    summary = read_json(out / f"interlace_{law}_summary.json")
    ck.expect(summary.get("violations") == 0, f"{what}: {summary.get('violations')} violations")
    ck.expect(summary.get("cauchy_failures") == 0, f"{what}: {summary.get('cauchy_failures')} cauchy failures")
    ck.expect(summary.get("cauchy_checked") == len(sizes) * min(INTERLACE_CAUCHY_TRIALS, trials),
              f"{what}: cauchy_checked {summary.get('cauchy_checked')}")
    min_a = min_b = math.inf
    scale = 0.0
    singular = 0
    for n in sizes:
        config, rows = read_trials(out / f"interlace_{law}_n{n}_trials.csv")
        check_echo(ck, config, what, experiment="interlace", sizes=list(sizes), trials=trials,
                   master_seed=master_seed, law=law)
        check_trial_ids(ck, rows, trials, f"{what} n={n}")
        for t, r in enumerate(rows[:trials]):
            tag = f"{what} n={n} trial {t}"
            crow, word = toeplitz_embedding_row(master_seed, law, n, t)
            ck.expect(r["seed"] == str(word), f"{tag}: seed {r['seed']} != {word}")
            sigma_c = np.sort(np.abs(np.fft.fft(crow)))[::-1]
            flags = r["flags"].split(";") if r["flags"] else []
            if check_extremes(ck, r, sigma_c, tag):
                singular += 1
            ck.expect(not any(f.startswith("violation") for f in flags), f"{tag}: flags {flags}")
            # clauses (a) and (b) with LAPACK singular values: the first n
            # columns of C_2n are [T; B] and its leading block is T
            cmat = circulant(crow)
            sigma_a = np.linalg.svd(cmat[:, :n], compute_uv=False)
            sigma_t = np.linalg.svd(cmat[:n, :n], compute_uv=False)
            margin_a = min(sigma_c[0] - sigma_a[0], sigma_a[n - 1] - sigma_c[-1])
            margin_b = float(np.min(sigma_c[:n] - sigma_t))
            tol = 1e-8 * sigma_c[0]
            ck.expect(margin_a >= -tol and margin_b >= -tol,
                      f"{tag}: LAPACK margins a={margin_a:.3e} b={margin_b:.3e} violate interlacing")
            min_a, min_b = min(min_a, margin_a), min(min_b, margin_b)
            scale = max(scale, float(sigma_c[0]))
    ck.expect(summary.get("singular_count") == singular,
              f"{what}: singular_count {summary.get('singular_count')} != {singular}")
    margins = summary.get("margin_summaries", {})
    for clause, want in (("a", min_a), ("b", min_b)):
        got = margins.get(clause, {}).get("min")
        ck.close(got, float(want), f"{what} smallest clause-{clause} margin", atol=1e-9 * scale)


def interlace_calls(seed: int, p: int, *, sizes: tuple[int, ...] = INTERLACE_SIZES,
                    trials: int = INTERLACE_TRIALS) -> list["Call"]:
    calls = []
    for i, law in enumerate(INTERLACE_LAWS):
        ms = pass_seed(seed, p, i)
        argv = ("experiment", "interlace", "--dist", law, "--sizes", ",".join(map(str, sizes)),
                "--trials", str(trials), "--seed", str(ms))
        calls.append(Call(argv, partial(check_interlace, law=law, master_seed=ms,
                                        sizes=sizes, trials=trials)))
    return calls


# ---------------------------------------------------------------------------
# tails: sigma_max brackets (c05) and sigma_min exceedance (c06), FFT only


def check_sigmax(ck: Checker, out: Path, rng: np.random.Generator, *, law: str,
                 master_seed: int, sizes: tuple[int, ...], trials: int, oversampling: int) -> None:
    what = f"sigmax {law} seed {master_seed}"
    with open(out / f"sigmax_{law}_ratios.csv", newline="") as fh:
        ratios = list(csv.DictReader(fh))
    ck.expect(len(ratios) == len(sizes) * trials, f"{what}: {len(ratios)} ratio rows")
    widen = 1.0 / (1.0 - math.pi / oversampling)
    by_key = {}
    for r in ratios:
        lo, hi = num(r["ratio_lower"]), num(r["ratio_upper"])
        ck.expect(r["dist"] == law and lo is not None and hi is not None, f"{what}: ratio row {r}")
        if lo is not None and hi is not None:
            ck.close(hi / lo, widen, f"{what} n={r['n']} trial {r['trial']} ratio_upper/ratio_lower",
                     rtol=1e-12)
            by_key[(int(r["n"]), int(r["trial"]))] = (lo, hi)
    summary = read_json(out / f"sigmax_{law}_summary.json")
    for n in sizes:
        config, rows = read_trials(out / f"sigmax_{law}_n{n}_trials.csv")
        check_echo(ck, config, what, experiment="sigmax", sizes=list(sizes), trials=trials,
                   master_seed=master_seed, oversampling=oversampling, law=law)
        check_trial_ids(ck, rows, trials, f"{what} n={n}")
        ck.expect(summary.get("summaries", {}).get(str(n), {}).get("count") == trials,
                  f"{what}: summary count at n={n}")
        sampled = rng.permutation(min(trials, len(rows)))[:REPLAY_SAMPLES]
        denom = math.sqrt(n * math.log(n))
        for k, t in enumerate(sampled):
            r = rows[t]
            tag = f"{what} n={n} trial {t}"
            gen, word = stream(master_seed, n, t)
            row = draw(gen, law, n)
            ck.expect(r["seed"] == str(word), f"{tag}: seed {r['seed']} != {word}")
            check_extremes(ck, r, np.abs(np.fft.fft(row)), tag)
            smax = num(r["sigma_max"])
            ck.expect(smax is not None and smax >= abs(row.sum()) * (1.0 - 1e-12),
                      f"{tag}: sigma_max {smax!r} below |sum xi| = {abs(row.sum())!r}")
            if k < FINE_GRID_SAMPLES and (n, t) in by_key:
                # a grid twice as fine contains the certified grid, so its
                # maximum lies between the bracket's two ends
                lo, hi = by_key[(n, t)]
                peak = float(np.abs(np.fft.fft(row, 2 * oversampling * n)).max()) / denom
                ck.expect(lo * (1.0 - 1e-12) <= peak <= hi * (1.0 + 1e-12),
                          f"{tag}: fine-grid max {peak!r} outside bracket [{lo!r}, {hi!r}]")


def check_sigmin(ck: Checker, out: Path, rng: np.random.Generator, *, master_seed: int,
                 sizes: tuple[int, ...], trials: int, rho: float, eps: tuple[float, ...]) -> None:
    what = f"sigmin normal seed {master_seed}"
    points = read_json(out / "sigmin_normal_summary.json").get("tail", {}).get("points", [])
    ck.expect(len(points) == len(sizes) * len(eps), f"{what}: {len(points)} tail points")
    for n in sizes:
        config, rows = read_trials(out / f"sigmin_normal_n{n}_trials.csv")
        check_echo(ck, config, what, experiment="sigmin", sizes=list(sizes), trials=trials,
                   master_seed=master_seed, rho=rho, epsilons=list(eps), law="normal")
        check_trial_ids(ck, rows, trials, f"{what} n={n}")
        for t in rng.permutation(min(trials, len(rows)))[:REPLAY_SAMPLES]:
            r = rows[t]
            gen, word = stream(master_seed, n, t)
            row = draw(gen, "normal", n)
            ck.expect(r["seed"] == str(word), f"{what} n={n} trial {t}: seed {r['seed']} != {word}")
            check_extremes(ck, r, np.abs(np.fft.fft(row)), f"{what} n={n} trial {t}")
        smins = np.array([num(r["sigma_min"]) for r in rows], dtype=float)
        curve = sorted((p["epsilon"], p["exceedance"]) for p in points if p["n"] == n)
        ck.expect(all(a[1] <= b[1] for a, b in zip(curve, curve[1:])),
                  f"{what} n={n}: exceedance decreases in eps: {curve}")
        for e, got in curve:
            want = np.count_nonzero(smins <= e * n ** -rho) / trials
            ck.close(got, want, f"{what} n={n} eps={e} exceedance")


def tails_calls(seed: int, p: int, *, sizes: tuple[int, ...] = TAILS_SIZES,
                sigmax_trials: int = SIGMAX_TRIALS, sigmin_trials: int = SIGMIN_TRIALS) -> list["Call"]:
    size_arg = ",".join(map(str, sizes))
    calls = []
    for i, law in enumerate(TAILS_LAWS):
        ms = pass_seed(seed, p, i)
        argv = ("experiment", "sigmax", "--dist", law, "--sizes", size_arg,
                "--trials", str(sigmax_trials), "--oversampling", str(TAILS_OVERSAMPLING), "--seed", str(ms))
        calls.append(Call(argv, partial(check_sigmax, law=law, master_seed=ms, sizes=sizes,
                                        trials=sigmax_trials, oversampling=TAILS_OVERSAMPLING)))
    ms = pass_seed(seed, p, len(TAILS_LAWS))
    argv = ("experiment", "sigmin", "--dist", "normal", "--sizes", size_arg,
            "--trials", str(sigmin_trials), "--rho", str(SIGMIN_RHO),
            "--eps-grid", ",".join(map(str, SIGMIN_EPS)), "--seed", str(ms))
    calls.append(Call(argv, partial(check_sigmin, master_seed=ms, sizes=sizes, trials=sigmin_trials,
                                    rho=SIGMIN_RHO, eps=SIGMIN_EPS)))
    return calls


# ---------------------------------------------------------------------------
# census: exhaustive gcd census, no linear algebra


def check_census(ck: Checker, out: Path, rng: np.random.Generator, *, max_m: int) -> None:
    from circulab.arithmetic import gcd_census

    what = f"gcd-census M<={max_m}"
    with open(out / "lemma_gcd-census.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ck.expect(len(rows) == 4 * max_m, f"{what}: {len(rows)} rows, want {4 * max_m}")
    for i, r in enumerate(rows[: 4 * max_m]):
        m = i // 4 + 1
        y = (1.0, 2.0, math.sqrt(m), float(m))[i % 4]
        ok = (r["M"] == str(m) and r["y"] == str(y) and r["applicable"] == "True"
              and r["holds"] == "True" and r["margin"] == "0")
        if not ck.expect(ok, f"{what}: row {i} {r}"):
            break
    # the CSV carries only the margin, so the counts themselves are
    # recomputed at sampled M and compared with a totient sieve
    phi = totients(max_m)
    for m in {1, 2, max_m, *(int(x) for x in rng.integers(1, max_m + 1, CENSUS_SAMPLES))}:
        for y, want in ((1.0, m), (2.0, m - int(phi[m])), (float(m), 1)):
            got = gcd_census(m, max(y, 1.0)).exact_count
            ck.expect(got == want, f"{what}: exact_count(M={m}, y={y:g}) = {got}, want {want}")


def census_calls(seed: int, p: int, *, max_m: int = CENSUS_MAX_M) -> list["Call"]:
    argv = ("verify-lemmas", "--lemma", "gcd-census", "--max-m", str(max_m))
    return [Call(argv, partial(check_census, max_m=max_m))]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One ``circulab`` command of a pass and the check of the files it writes."""

    argv: tuple[str, ...]
    check: Callable[[Checker, Path, np.random.Generator], None]

    def verify(self, ck: Checker, out: Path, rng: np.random.Generator) -> None:
        """Run the check; output that cannot be read or parsed fails it too."""
        try:
            self.check(ck, out, rng)
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            ck.expect(False, f"{' '.join(self.argv)}: unreadable output: {exc!r}")


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int, int], list[Call]]   # (seed, pass index) -> calls of that pass
    warmup: tuple[tuple[str, ...], ...]       # tiny commands run once during set-up


WORKLOADS = {
    "table1": Workload(table1_calls, (
        ("experiment", "table1", "--dist", "normal", "--two-n", "64", "--trials", "2"),
        ("experiment", "table1", "--dist", "rademacher", "--two-n", "64", "--trials", "2"),
    )),
    "interlace": Workload(interlace_calls, (
        ("experiment", "interlace", "--dist", "normal", "--sizes", "8", "--trials", "1"),
    )),
    "tails": Workload(tails_calls, (
        ("experiment", "sigmax", "--dist", "normal", "--sizes", "16", "--trials", "2"),
        ("experiment", "sigmin", "--dist", "normal", "--sizes", "16", "--trials", "2"),
    )),
    "census": Workload(census_calls, (
        ("verify-lemmas", "--lemma", "gcd-census", "--max-m", "10"),
    )),
}
