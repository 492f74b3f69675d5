"""The validation suite: every closed-form oracle recomputed by an
independent method (exhaustive enumeration, matrix powers, Monte
Carlo), plus the cross-implementation replay checks, in one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from . import oracles
from .engine import STANDARD, ParticleSystem, WalkMode, lazy
from .harness import pair_coupling_audit
from .rng import derive_seed, draw, mix64_array, stream_words
from .topology import TopologySpec, build, with_leaf_depth

__all__ = ["CheckResult", "ValidationReport", "validate_suite"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: Any
    expected: Any
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark:4}] {self.name}: observed={self.observed} expected={self.expected} {self.detail}".rstrip()


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(
            f"{len(self.checks) - len(self.failures)}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines)


def _check_kn_changes_mc(rng: np.random.Generator, trials: int) -> CheckResult:
    # U balls into n boxes, H of which hold a settled particle. X =
    # settled boxes hit, Y = balls landing alone on unsettled boxes.
    n, H, U = 100, 30, 20
    ora = oracles.kn_expected_changes(oracles.KnState(n, H, U))
    xs = np.zeros(trials)
    ys = np.zeros(trials)
    chunk = 100_000
    done = 0
    while done < trials:
        c = min(chunk, trials - done)
        draws = rng.integers(0, n, size=(c, U))
        flat = draws + np.arange(c)[:, None] * n
        counts = np.bincount(flat.ravel(), minlength=c * n).reshape(c, n)
        xs[done : done + c] = (counts[:, :H] >= 1).sum(axis=1)
        alone = counts[:, H:] == 1
        ys[done : done + c] = alone.sum(axis=1)
        done += c
    out = []
    for label, samples, expect in (("EX", xs, ora.EX), ("EY", ys, ora.EY)):
        se = samples.std(ddof=1) / math.sqrt(trials)
        out.append((label, samples.mean(), expect, se))
    bad = [f"{l}: {m:.4f} vs {e:.4f} (3se={3 * se:.4f})" for l, m, e, se in out if abs(m - e) > 3 * se]
    obs = {l: round(m, 4) for l, m, _, _ in out}
    exp = {l: round(e, 4) for l, _, e, _ in out}
    return CheckResult(
        "kn-changes-mc", not bad, obs, exp, "; ".join(bad) or f"{trials} trials"
    )


def _check_lazy_range_mc(rng: np.random.Generator, trials: int) -> CheckResult:
    n, p = 100, 0.5
    # ER+ at the 20-particle profile; ER- at the [2,2] profile, also
    # against an exact brute force over all move/stay patterns.
    prof_plus = oracles.LazyOccupancyProfile(n, p, (2,) * 10, E_empty=60)
    prof_minus = oracles.LazyOccupancyProfile(n, p, (2, 2), E_empty=0)
    ora_plus = oracles.lazy_expected_range_changes(prof_plus).ER_plus
    ora_minus = oracles.lazy_expected_range_changes(prof_minus).ER_minus_exact

    # Brute force ER-: vertex v0 holds particles {0,1} of U=4; sum over
    # the 2^4 move/stay patterns, movers land uniformly over n.
    exact = 0.0
    U = 4
    for pattern in range(1 << U):
        moves = [(pattern >> b) & 1 for b in range(U)]
        prob = math.prod(p if m else (1 - p) for m in moves)
        if moves[0] and moves[1]:
            away = (1 - 1 / n) ** sum(moves)
            exact += prob * away
    exact *= 2  # two symmetric vertices
    brute_ok = abs(exact - ora_minus) < 1e-12

    # Monte Carlo for both quantities, chunked to bound memory.
    U_plus = prof_plus.U
    first_empty = 40  # 10 unhappy vertices + 30 happy; empties are 40..99
    sum_p = sq_p = 0.0
    sum_m = sq_m = 0.0
    src = np.array([0, 0, 1, 1])
    done = 0
    chunk = 100_000
    while done < trials:
        c = min(chunk, trials - done)
        moves = rng.random((c, U_plus)) < p
        dest = rng.integers(0, n, size=(c, U_plus))
        landed = np.sort(np.where(moves, dest, -1), axis=1)
        fresh = np.empty_like(moves)
        fresh[:, 0] = True
        fresh[:, 1:] = landed[:, 1:] != landed[:, :-1]
        r_plus = (fresh & (landed >= first_empty)).sum(axis=1).astype(np.float64)
        sum_p += float(r_plus.sum())
        sq_p += float((r_plus**2).sum())

        moves4 = rng.random((c, 4)) < p
        dest4 = rng.integers(0, n, size=(c, 4))
        final = np.where(moves4, dest4, src[None, :])
        emptied0 = (final != 0).all(axis=1) & moves4[:, 0] & moves4[:, 1]
        emptied1 = (final != 1).all(axis=1) & moves4[:, 2] & moves4[:, 3]
        r_minus = emptied0.astype(np.float64) + emptied1.astype(np.float64)
        sum_m += float(r_minus.sum())
        sq_m += float((r_minus**2).sum())
        done += c

    mc_plus = sum_p / trials
    se_plus = math.sqrt(max(sq_p / trials - mc_plus**2, 0.0) / trials)
    mc_minus = sum_m / trials
    se_minus = math.sqrt(max(sq_m / trials - mc_minus**2, 0.0) / trials)

    ok = (
        brute_ok
        and abs(mc_plus - ora_plus) <= 3 * se_plus
        and abs(mc_minus - ora_minus) <= 3 * se_minus
    )
    return CheckResult(
        "lazy-range-mc",
        ok,
        {"ER_plus": round(mc_plus, 4), "ER_minus": round(mc_minus, 5), "brute": round(exact, 6)},
        {"ER_plus": round(ora_plus, 4), "ER_minus": round(ora_minus, 5)},
        f"{trials} trials; brute force over 16 move/stay patterns",
    )


def _check_line_pmf(max_T: int) -> CheckResult:
    # Exhaustive enumeration of all 2^(2T) +-1 walks.
    bad = []
    for T in range(1, max_T + 1):
        steps = 2 * T
        walks = ((np.arange(1 << steps)[:, None] >> np.arange(steps)) & 1) * 2 - 1
        sums = walks.cumsum(axis=1)
        rcounts = (sums == 0).sum(axis=1)
        total = 1 << steps
        for r in range(T + 1):
            emp = Fraction(int((rcounts == r).sum()), total)
            if emp != oracles.line_returns_pmf(T, r):
                bad.append((T, r))
    return CheckResult(
        "line-pmf-exhaustive",
        not bad,
        "exact match" if not bad else f"mismatches at {bad[:5]}",
        "exact match",
        f"T <= {max_T}, all walks enumerated",
    )


def _check_edh_forms() -> CheckResult:
    worst = 0.0
    for n in range(10, 110, 10):
        for H in range(0, n, max(1, n // 10)):
            for U in range(1, n - H + 1, max(1, (n - H) // 10)):
                ch = oracles.kn_expected_changes(oracles.KnState(n, H, U))
                q = 1.0 - 1.0 / n
                alt = q**U * (U + H - U * (H - 1) / (n - 1)) - H
                worst = max(worst, abs(alt - ch.EdH))
    return CheckResult(
        "edh-forms-agree",
        worst < 1e-12,
        f"max|diff|={worst:.2e}",
        "< 1e-12",
        "two closed forms of the expected happy-count change",
    )


def _hypercube_returns(d: int, steps: int) -> list[float]:
    """P^s(0, 0) of the simple walk on the d-cube for s = 0..steps, by
    transition powers."""
    size = 1 << d
    nbrs = np.arange(size)[:, None] ^ (1 << np.arange(d))[None, :]
    v = np.zeros(size)
    v[0] = 1.0
    out = [v[0]]
    for _ in range(steps):
        v = v[nbrs].mean(axis=1)
        out.append(v[0])
    return out


def _check_hypercube_matrix(max_d: int, max_s: int) -> CheckResult:
    worst = 0.0
    for d in range(1, max_d + 1):
        returns = _hypercube_returns(d, max_s)
        for s in range(1, max_s + 1):
            worst = max(
                worst, abs(returns[s] - float(oracles.hypercube_return_probability(d, s)))
            )
    return CheckResult(
        "hypercube-return-matrix",
        worst < 1e-12,
        f"max|diff|={worst:.2e}",
        "< 1e-12",
        f"d <= {max_d}, s <= {max_s} against transition powers",
    )


def _check_tree_ruin_mc(rng: np.random.Generator, walkers: int) -> CheckResult:
    # Biased walk toward the mark with probability 1/k; escape cut 40
    # levels out contributes < (k-1)^-40 bias.
    bad = []
    obs = {}
    for k in (3, 4, 5):
        for d in (1, 2, 3, 5):
            pos = np.full(walkers, d, dtype=np.int32)
            ruined = 0
            active = pos
            while active.size:
                step = np.where(
                    rng.random(active.size) < 1.0 / k, -1, 1
                ).astype(np.int32)
                active = active + step
                ruined += int((active == 0).sum())
                active = active[(active > 0) & (active < d + 40)]
            phat = ruined / walkers
            expect = oracles.tree_ruin_probability(k, d)
            se = math.sqrt(max(expect * (1 - expect), 1e-12) / walkers)
            obs[f"k{k}d{d}"] = round(phat, 5)
            if abs(phat - expect) > 3 * se:
                bad.append(f"k={k} d={d}: {phat:.5f} vs {expect:.5f}")
    return CheckResult(
        "tree-ruin-mc",
        not bad,
        obs,
        "within 3 standard errors",
        "; ".join(bad) or f"{walkers} first-passage walks per point",
    )


def _check_neighbor_chi2(draws: int) -> CheckResult:
    """Uniformity of the neighbour each stepping loop draws: the kernel's
    neighbor_array on mixed stream words and the reference loop's
    neighbor(v, draw % degree), which must agree draw for draw."""
    from scipy import stats as sstats

    cases = [
        (TopologySpec.complete(10, with_loops=True), 0),
        (TopologySpec.complete(10), 3),
        (TopologySpec.cycle(7), 2),
        (TopologySpec.tree(3, leaf_depth=6), (0, 1)),
        (TopologySpec.grid(3), (1, -2, 0)),
        (TopologySpec.hypercube(5), 9),
        (TopologySpec.star(5), 0),
    ]
    counts = np.arange(1, draws + 1)
    worst = 1.0
    bad = []
    for idx, (spec, v) in enumerate(cases):
        topo = build(spec)
        key = derive_seed(0xC0FFEE, idx)
        deg = topo.degree(v)
        src = np.repeat(topo.to_array([v]), draws, axis=-1)
        kernel = topo.from_array(topo.neighbor_array(src, mix64_array(stream_words(key, counts))))
        reference = [topo.neighbor(v, draw(key, n) % deg) for n in range(1, draws + 1)]
        if kernel != reference:
            bad.append(f"{spec.family.value}: the loops draw different neighbours")
            continue
        index_of = {topo.neighbor(v, i): i for i in range(deg)}
        hits = np.bincount([index_of[w] for w in reference], minlength=deg)
        p = float(sstats.chisquare(hits).pvalue)
        worst = min(worst, p)
        if p <= 0.001:
            bad.append(f"{spec.family.value}: p={p:.5f}")
    return CheckResult(
        "neighbor-sampling-chi2",
        not bad,
        f"min p-value {worst:.4f}",
        "> 0.001",
        "; ".join(bad) or f"{draws} draws per vertex, {len(cases)} vertices, kernel = reference",
    )


def _check_grid_envelope(max_t: int) -> CheckResult:
    s = np.arange(1, max_t + 1, dtype=np.float64)
    terms = np.concatenate([[1.0], np.cumprod(((2 * s - 1) / (2 * s)) ** 2)])
    r = np.cumsum(terms)
    t = np.arange(2, max_t + 1)
    env = np.log(t) + 1.3
    ok_env = bool((r[2:] <= env).all())
    ok_inc = bool((terms[1:] > 0).all())
    passed = ok_env and ok_inc
    worst = float((r[2:] - env).max())
    return CheckResult(
        "grid-return-envelope",
        passed,
        f"max(R - ln t - 1.3) = {worst:.4f}",
        "<= 0",
        f"t in [2, {max_t}]; increments positive",
    )


def _check_coupling(seeds: int) -> CheckResult:
    specs = [
        (TopologySpec.path(), 2000),
        (TopologySpec.grid(2), 20000),
        (TopologySpec.hypercube(8), 2000),
    ]
    violations = 0
    audits = 0
    for fam_idx, (spec, budget) in enumerate(specs):
        for s in range(seeds):
            ps = ParticleSystem(spec, 2, seed=derive_seed(0xAD17, fam_idx * seeds + s))
            ps.record_trajectories(True)
            res = ps.run(budget)
            meetings, combined = pair_coupling_audit(res.trajectories)
            audits += 1
            if combined < meetings:
                violations += 1
    return CheckResult(
        "coupling-audit",
        violations == 0,
        f"{violations} violations in {audits} audited pairs",
        "0 violations",
        "combined returns bound pair meetings (standard variant)",
    )


def _check_tree_no3(runs: int) -> CheckResult:
    # Depth ceil(1.6 log2 M) of the k=3 tree should rarely see a third
    # distinct particle.
    M = 256
    depth = math.ceil(1.6 * math.log2(M))
    spec = TopologySpec.tree(3)
    flagged = 0
    for s in range(runs):
        exp_spec = with_leaf_depth(spec, M)
        ps = ParticleSystem(exp_spec, M, seed=derive_seed(0x7EE, s))
        ps.record_trajectories(True)
        res = ps.run(10**6)
        seen: dict[Any, set] = {}
        hit = False
        for _, pid, dest in res.trajectories.events:
            if len(dest) == depth:
                bucket = seen.setdefault(dest, set())
                bucket.add(pid)
                if len(bucket) >= 3:
                    hit = True
                    break
        if hit:
            flagged += 1
    frac = flagged / runs
    return CheckResult(
        "tree-no-3-visit",
        frac <= 0.05,
        f"{flagged}/{runs} runs with a triple visit at depth {depth}",
        "<= 5%",
        f"k=3, M={M}",
    )


def _check_mixing_matrix(max_hypercube_d: int, cycle_ns) -> CheckResult:
    bad = []
    for d in range(1, max_hypercube_d + 1):
        T = oracles.mixing_step(TopologySpec.hypercube(d))
        nprime = 1 << (d - 1)
        vals = _hypercube_returns(d, T)
        if abs(vals[T] - 1 / nprime) > 1 / (2 * nprime) + 1e-12:
            bad.append(f"hypercube d={d}: condition fails at T={T}")
        if T > 2 and abs(vals[T - 2] - 1 / nprime) < 1 / (2 * nprime) - 1e-12:
            bad.append(f"hypercube d={d}: T={T} not minimal")
    for n in cycle_ns:
        T = oracles.mixing_step(TopologySpec.cycle(n))
        P = np.zeros((n, n))
        for v_ in range(n):
            P[v_, (v_ + 1) % n] = 0.5
            P[v_, (v_ - 1) % n] = 0.5
        nprime = n // 2 if n % 2 == 0 else n
        PT = np.linalg.matrix_power(P, T)
        if abs(PT[0, 0] - 1 / nprime) > 1 / (2 * nprime) + 1e-12:
            bad.append(f"cycle n={n}: condition fails at T={T}")
        if T > 2:
            P2 = np.linalg.matrix_power(P, T - 2)
            if abs(P2[0, 0] - 1 / nprime) < 1 / (2 * nprime) - 1e-12:
                bad.append(f"cycle n={n}: T={T} not minimal")
    return CheckResult(
        "mixing-vs-matrix",
        not bad,
        "; ".join(bad) or "all minimal and valid",
        "envelope tight at T, violated at T-2",
        f"hypercube d <= {max_hypercube_d}, cycles {list(cycle_ns)}",
    )


def _check_line_tail() -> CheckResult:
    bad = []
    for T in range(1, 13):
        e0, b0 = oracles.line_returns_tail(T, 0)
        if e0 != 1 or not math.isinf(b0):
            bad.append((T, 0))
        for r in range(1, T + 1):
            exact, bound = oracles.line_returns_tail(T, r)
            if float(exact) > bound + 1e-15:
                bad.append((T, r))
    return CheckResult(
        "line-tail-bound",
        not bad,
        "exact <= bound everywhere" if not bad else f"violations {bad}",
        "exact <= bound",
        "1 <= r <= T <= 12",
    )


def _replay_mismatches(seeds: int, master: int, cases, a_kwargs, b_kwargs) -> int:
    """Runs, over `seeds` shared seeds and every (spec, M) case, in which
    systems built with a_kwargs and with b_kwargs end apart: in positions,
    t_disp or walk counts."""
    bad = 0
    for s in range(seeds):
        for spec, M in cases:
            a = ParticleSystem(spec, M, seed=derive_seed(master, s), **a_kwargs)
            b = ParticleSystem(spec, M, seed=derive_seed(master, s), **b_kwargs)
            ra = a.run(50_000)
            rb = b.run(50_000)
            if (
                a.positions != b.positions
                or ra.t_disp != rb.t_disp
                or (ra.walk_counts != rb.walk_counts).any()
            ):
                bad += 1
    return bad


def _check_walk_modes(seeds: int) -> CheckResult:
    cases = ((TopologySpec.cycle(11), 7), (TopologySpec.grid(2), 9))
    bad = _replay_mismatches(seeds, 0x30DE, cases, {}, {"walk_mode": WalkMode.PREDETERMINED})
    return CheckResult(
        "walk-mode-equality",
        bad == 0,
        f"{bad} mismatches",
        "0",
        f"{seeds} seeds, on-demand vs predetermined",
    )


def _check_lazy_p1(seeds: int) -> CheckResult:
    cases = ((TopologySpec.complete(40, with_loops=True), 25), (TopologySpec.cycle(13), 8))
    bad = _replay_mismatches(seeds, 0x1A2, cases, {"variant": STANDARD}, {"variant": lazy(1.0)})
    return CheckResult(
        "lazy-p1-standard",
        bad == 0,
        f"{bad} mismatches",
        "0",
        "lazy p=1 must replay the standard trajectories bitwise",
    )


def validate_suite(quick: bool = False) -> ValidationReport:
    """Every oracle-vs-Monte-Carlo and cross-implementation check in
    one report. quick=True shrinks trial counts for CI-sized runs."""
    rng = np.random.default_rng(0x5EED)
    trials = 100_000 if quick else 1_000_000
    report = ValidationReport()
    checks = [
        _check_kn_changes_mc(rng, trials),
        _check_lazy_range_mc(rng, trials),
        _check_line_pmf(5 if quick else 8),
        _check_edh_forms(),
        _check_hypercube_matrix(4 if quick else 6, 20 if quick else 40),
        _check_tree_ruin_mc(rng, 100_000 if quick else 1_000_000),
        _check_neighbor_chi2(20_000 if quick else 100_000),
        _check_grid_envelope(10_000 if quick else 1_000_000),
        _check_coupling(100 if quick else 1000),
        _check_tree_no3(30 if quick else 200),
        _check_mixing_matrix(8 if quick else 12, (3, 4, 5, 8, 9, 16) if quick else (3, 4, 5, 8, 9, 16, 33, 64)),
        _check_line_tail(),
        _check_walk_modes(3 if quick else 10),
        _check_lazy_p1(3 if quick else 10),
    ]
    report.checks.extend(checks)
    return report
