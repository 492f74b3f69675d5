"""Closed-form expectations, probabilities, and bounds used as ground
truth for Monte Carlo cross-checks.

Everything here is a pure function. Binomial-heavy quantities are
evaluated in exact big-integer or rational arithmetic and converted to
float only at the boundary; "log" always means the natural logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np

from .topology import Family, TopologySpec, config_bool, config_value

__all__ = [
    "MIXING_VERTEX_CAP",
    "KnState",
    "LazyOccupancyProfile",
    "TreeConstants",
    "OracleValue",
    "kn_expected_changes",
    "kn_subcritical_time",
    "lazy_expected_range_changes",
    "lazy_subcritical_time",
    "tree_constants",
    "tree_depth_bounds",
    "tree_ruin_probability",
    "line_returns_pmf",
    "line_returns_tail",
    "grid2d_expected_returns",
    "hypercube_return_probability",
    "mixing_step",
    "path_distance_bounds",
    "ORACLES",
    "evaluate",
]

# Exact spectral evaluation refuses graphs larger than this.
MIXING_VERTEX_CAP = 65536


@dataclass(frozen=True)
class KnState:
    """Complete-graph occupancy summary: H particles alone, U sharing."""

    n: int
    H: int
    U: int
    with_loops: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.H < 0 or self.U < 0:
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True)
class LazyOccupancyProfile:
    """Occupancies of the multi-occupied vertices plus the empty count.

    occupancies holds O_v >= 2 for each unhappy vertex; U is their sum.
    Happy vertices make up the remainder of the n.
    """

    n: int
    p: float
    occupancies: tuple = ()
    E_empty: int = 0

    def __post_init__(self):
        object.__setattr__(self, "occupancies", tuple(self.occupancies))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if any(o < 2 for o in self.occupancies):
            raise ValueError("unhappy vertices hold at least 2 particles")
        if self.E_empty < 0:
            raise ValueError("empty count must be nonnegative")
        if self.E_empty + len(self.occupancies) > self.n:
            raise ValueError("more vertices than the graph has")

    @property
    def U(self) -> int:
        return sum(self.occupancies)


class TreeConstants(NamedTuple):
    alpha_k: float
    beta_k: float


class Band(NamedTuple):
    lower: float
    upper: float


class TailBound(NamedTuple):
    exact: Fraction
    bound: float


class KnChanges(NamedTuple):
    EX: float
    EY: float
    EdH: float
    approximate: bool


class RangeChanges(NamedTuple):
    ER_plus: float
    ER_minus_exact: float


@dataclass(frozen=True)
class OracleValue:
    name: str
    inputs: dict
    value: Any
    equation_tag: str


def kn_expected_changes(s: KnState) -> KnChanges:
    """Expected one-step happy/unhappy exchange on the complete graph
    with loops, modelled as U balls thrown uniformly into n boxes of
    which H hold a settled particle.

    EX counts settled particles disturbed, EY counts balls landing
    alone on unsettled boxes. Without loops the same values apply up
    to a (1 + O(1/log n)) factor and are flagged approximate.
    """
    if s.U < 1:
        raise ValueError("need at least one unhappy particle")
    n, H, U = s.n, s.H, s.U
    q = 1.0 - 1.0 / n
    EX = H * (1.0 - q**U)
    EY = U * ((n - H) / n) * q ** (U - 1)
    return KnChanges(EX, EY, EY - EX, approximate=not s.with_loops)


def kn_subcritical_time(n, delta: float) -> int:
    """Step count after which subcritical complete-graph dispersion has
    failed with probability O(1/n): ceil((2/delta) ln n)."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if n <= 0:
        raise ValueError("need n > 0")
    return math.ceil((2.0 / delta) * math.log(n))


def lazy_expected_range_changes(prof: LazyOccupancyProfile) -> RangeChanges:
    """Expected one-step growth/shrink of the occupied-vertex range for
    the lazy variant on the complete graph with loops.

    ER_plus: empty vertices gaining a particle. ER_minus_exact: unhappy
    vertices losing all of theirs (everyone moves, nobody lands back).
    """
    n, p, U = prof.n, prof.p, prof.U
    ER_plus = prof.E_empty * (1.0 - (1.0 - p / n) ** U)
    ER_minus = sum(
        p**o * (1.0 - 1.0 / n) ** o * (1.0 - p / n) ** (U - o)
        for o in prof.occupancies
    )
    return RangeChanges(ER_plus, ER_minus)


def lazy_subcritical_time(n, p: float, alpha: float) -> int:
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if n <= 0:
        raise ValueError("need n > 0")
    return math.ceil(4.0 * math.log(n) / (p * alpha))


def tree_constants(k: int) -> TreeConstants:
    """Depth-band constants of dispersion on the k-regular tree:
    alpha_k = 1 - 1/(2 log_{k-1} k - 1), beta_k = 1/3 - 1/(3 log_{k-1} k).
    """
    if k < 3:
        raise ValueError("need k >= 3")
    lg = math.log(k) / math.log(k - 1)
    alpha = 1.0 - 1.0 / (2.0 * lg - 1.0)
    beta = 1.0 / 3.0 - 1.0 / (3.0 * lg)
    return TreeConstants(alpha, beta)


def tree_depth_bounds(k: int, M: int, eps: float) -> Band:
    """Band [(2 - alpha_k - eps) log_{k-1} M, (2 - beta_k + 2 eps) log_{k-1} M]
    containing the dispersal depth of M particles on the k-regular tree."""
    if M < 2:
        raise ValueError("need M >= 2")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    c = tree_constants(k)
    logm = math.log(M) / math.log(k - 1)
    return Band((2.0 - c.alpha_k - eps) * logm, (2.0 - c.beta_k + 2.0 * eps) * logm)


def tree_ruin_probability(k: int, d: int) -> float:
    """Probability that the outward-biased walk on the k-regular tree
    (toward a marked vertex with probability 1/k, away with (k-1)/k)
    ever reaches the mark from distance d: (1/(k-1))^d."""
    if k < 3:
        raise ValueError("need k >= 3")
    if d < 0:
        raise ValueError("need d >= 0")
    return (1.0 / (k - 1)) ** d


def line_returns_pmf(T: int, r: int) -> Fraction:
    """Probability of exactly r returns to the start in 2T steps of the
    simple +-1 walk: 2^-(2T-r) C(2T-r, T). Exact rational."""
    if T < 1:
        raise ValueError("need T >= 1")
    if not 0 <= r <= T:
        raise ValueError("need 0 <= r <= T")
    return Fraction(math.comb(2 * T - r, T), 1 << (2 * T - r))


def line_returns_tail(T: int, r: int) -> TailBound:
    """Probability of at least r returns in 2T steps, with the closed
    upper bound pmf(T, r) * (2T - r)/r. The bound degenerates at r=0,
    where an infinite sentinel is returned."""
    if T < 1:
        raise ValueError("need T >= 1")
    if not 0 <= r <= T:
        raise ValueError("need 0 <= r <= T")
    exact = sum(
        (line_returns_pmf(T, s) for s in range(r, T + 1)), Fraction(0)
    )
    if r == 0:
        return TailBound(exact, math.inf)
    return TailBound(exact, float(line_returns_pmf(T, r)) * (2 * T - r) / r)


def grid2d_expected_returns(t: int) -> float:
    """Expected returns to the origin of the 2-D lattice walk within 2t
    steps: sum_{s<=t} C(2s,s)^2 / 16^s. Each term is the square of the
    1-D return probability."""
    if t < 0:
        raise ValueError("need t >= 0")
    total = 1.0
    term = 1.0
    for s in range(1, t + 1):
        f = (2 * s - 1) / (2 * s)
        term *= f * f
        total += term
    return total


def hypercube_return_probability(d: int, s: int) -> Fraction:
    """Diagonal s-step transition probability of the simple walk on the
    d-cube, from the eigendecomposition: 2^-d sum_k C(d,k)((d-2k)/d)^s.
    Exact rational."""
    if d < 1:
        raise ValueError("need d >= 1")
    if s < 0:
        raise ValueError("need s >= 0")
    num = 0
    for k in range(d + 1):
        num += math.comb(d, k) * (d - 2 * k) ** s
    return Fraction(num, (1 << d) * d**s)


def path_distance_bounds(M: int, eps: float) -> Band:
    """Dispersal-distance band for M particles on the infinite line:
    floor(M/2) below, 4(1+eps) M ln M above."""
    if M < 2:
        raise ValueError("need M >= 2")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return Band(M // 2, 4.0 * (1.0 + eps) * M * math.log(M))


# -- uniform-mixing step ----------------------------------------------------
#
# The target condition: |P^s(u,u) - 1/n'| <= 1/(2n') for all even s >= T,
# with n' = n/2 on bipartite graphs and n otherwise. On a connected
# symmetric Cayley graph the +-1 eigenvalues contribute exactly 1/n', so
# the condition reduces to a monotone envelope over the remaining
# spectrum: sum of |lambda|^s over eigenvalues with |lambda| < 1 must not
# exceed 1 (bipartite) or 1/2. The smallest even s passing the check is
# returned; monotonicity makes it valid for every later even s too.


def _smallest_even(cond: Callable[[int], bool]) -> int:
    if cond(2):
        return 2
    hi = 2
    while not cond(hi):
        hi *= 2
        if hi > 1 << 62:
            raise RuntimeError("mixing step search diverged")
    lo = hi // 2  # cond(lo) is False
    while hi - lo > 2:
        mid = (lo + hi) // 2  # even: hi - lo is a power of two >= 4
        if cond(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _hypercube_mixing(d: int) -> int:
    # Exact integer comparison: sum_k C(d,k)|d-2k|^s <= d^s over
    # 0 < k < d.
    weights = [(math.comb(d, k), abs(d - 2 * k)) for k in range(1, d)]

    def ok(s: int) -> bool:
        return sum(c * b**s for c, b in weights) <= d**s

    return _smallest_even(ok)


def _envelope_mixing(mods: np.ndarray, budget: float) -> int:
    # mods: |lambda| for the non-unit eigenvalues, all strictly < 1.
    if mods.size == 0:
        return 2

    def ok(s: int) -> bool:
        return float(np.sum(mods**s)) <= budget

    return _smallest_even(ok)


def _cycle_mixing(n: int) -> int:
    # Same spectrum as the one-generator-pair Cayley encoding; sharing
    # the code keeps boundary rounding identical between the two.
    return _cayley_mixing((n,), ((1,), (-1,)))


def _cayley_mixing(moduli: tuple, generators: tuple) -> int:
    # Character index j gives eigenvalue mean_g cos(2 pi <j, g>) where
    # <j, g> = sum_l j_l g_l / m_l. Work over a common denominator
    # L = lcm(moduli) so the +-1 eigenvalues are recognised exactly
    # instead of through cos() rounding.
    L = math.lcm(*moduli)
    n = math.prod(moduli)
    shape = tuple(moduli)
    coords = np.unravel_index(np.arange(n), shape)
    angles = []
    for g in generators:
        t = np.zeros(n, dtype=np.int64)
        for lidx, m in enumerate(moduli):
            t += coords[lidx].astype(np.int64) * ((g[lidx] % m) * (L // m))
        angles.append(t % L)
    ts = np.stack(angles)  # (num_gens, n), values in [0, L)
    lam = np.cos(2.0 * np.pi * ts / L).mean(axis=0)
    is_plus = (ts == 0).all(axis=0)
    is_minus = (2 * ts == L).all(axis=0)
    if int(is_plus.sum()) != 1:
        raise ValueError("Cayley spec does not generate the whole group")
    bipartite = bool(is_minus.any())
    mods = np.abs(lam[~(is_plus | is_minus)])
    return _envelope_mixing(mods, 1.0 if bipartite else 0.5)


def mixing_step(spec: TopologySpec) -> int:
    """Smallest even T such that the walk's diagonal is within 1/(2n')
    of uniform-on-its-parity for every even s >= T."""
    fam = spec.family
    if fam is Family.HYPERCUBE:
        n = 1 << spec.dim
    elif fam is Family.CYCLE:
        n = spec.n
    elif fam is Family.CAYLEY:
        n = math.prod(spec.moduli)
    else:
        raise ValueError(f"mixing step is not defined for family {fam.value!r}")
    if n > MIXING_VERTEX_CAP:
        raise ValueError(f"graph too large for exact mixing ({n} vertices)")
    if fam is Family.HYPERCUBE:
        return 2 if spec.dim == 1 else _hypercube_mixing(spec.dim)
    if fam is Family.CYCLE:
        return _cycle_mixing(spec.n)
    return _cayley_mixing(spec.moduli, spec.generators)


# -- registry for the command line -----------------------------------------


@dataclass(frozen=True)
class OracleDef:
    func: Callable
    params: tuple  # (name, reader of its config text) pairs, in call order
    equation_tag: str
    optional: tuple = ()  # pairs as in params, each left to the function's default when not given


# Only these two build their argument from flags; every other entry
# names its library function.


def _kn_changes(n: int, H: int, U: int, with_loops: bool = True) -> KnChanges:
    return kn_expected_changes(KnState(n, H, U, with_loops))


def _lazy_range(n: int, p: float, occupancies, E_empty: int) -> RangeChanges:
    return lazy_expected_range_changes(LazyOccupancyProfile(n, p, occupancies, E_empty))


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",")]


ORACLES: dict[str, OracleDef] = {
    "kn-changes": OracleDef(
        _kn_changes,
        (("n", int), ("H", int), ("U", int)),
        "EX=H(1-(1-1/n)^U); EY=U((n-H)/n)(1-1/n)^(U-1); EdH=EY-EX",
        # Loopless walks shift the complete-graph change formulas.
        optional=(("with_loops", config_bool),),
    ),
    "kn-time": OracleDef(
        kn_subcritical_time,
        (("n", int), ("delta", float)),
        "ceil((2/delta) ln n)",
    ),
    "lazy-range": OracleDef(
        _lazy_range,
        (("n", int), ("p", float), ("occupancies", _int_list), ("E_empty", int)),
        "ER+ = E(1-(1-p/n)^U); ER- = sum_v p^Ov (1-1/n)^Ov (1-p/n)^(U-Ov)",
    ),
    "lazy-time": OracleDef(
        lazy_subcritical_time,
        (("n", int), ("p", float), ("alpha", float)),
        "ceil(4 ln n / (p alpha))",
    ),
    "tree-constants": OracleDef(
        tree_constants,
        (("k", int),),
        "alpha_k=1-1/(2 log_{k-1} k - 1); beta_k=1/3-1/(3 log_{k-1} k)",
    ),
    "tree-depth": OracleDef(
        tree_depth_bounds,
        (("k", int), ("M", int), ("eps", float)),
        "(2-alpha_k-eps) log_{k-1} M <= depth <= (2-beta_k+2 eps) log_{k-1} M",
    ),
    "tree-ruin": OracleDef(
        tree_ruin_probability,
        (("k", int), ("d", int)),
        "(1/(k-1))^d",
    ),
    "line-pmf": OracleDef(
        line_returns_pmf,
        (("T", int), ("r", int)),
        "2^-(2T-r) C(2T-r, T)",
    ),
    "line-tail": OracleDef(
        line_returns_tail,
        (("T", int), ("r", int)),
        "exact = sum_{s>=r} pmf(T,s); bound = pmf(T,r)(2T-r)/r",
    ),
    "grid2d-returns": OracleDef(
        grid2d_expected_returns,
        (("t", int),),
        "sum_{s=0..t} C(2s,s)^2 / 16^s",
    ),
    "hypercube-return": OracleDef(
        hypercube_return_probability,
        (("d", int), ("s", int)),
        "2^-d sum_k C(d,k)((d-2k)/d)^s",
    ),
    "path-bounds": OracleDef(
        path_distance_bounds,
        (("M", int), ("eps", float)),
        "floor(M/2) <= distance <= 4(1+eps) M ln M",
    ),
}


# Every name `evaluate` takes; `mixing-step` reads the topology config keys.
NAMES = (*sorted(ORACLES), "mixing-step")


def evaluate(name: str, config: dict) -> OracleValue:
    """Run an oracle by CLI name on flat config text, each input read by
    its registry entry's reader. A key the oracle does not take, or a
    required one left out, is a ValueError naming it as a flag."""
    if name == "mixing-step":
        d, takes = None, [f.name for f in fields(TopologySpec)]
    else:
        d = ORACLES[name]
        takes = [p for p, _ in d.params + d.optional]
    extra = ["--" + key.replace("_", "-") for key in config if key not in takes]
    if extra:
        raise ValueError(f"oracle {name} takes no {', '.join(extra)}")
    if d is None:
        spec = TopologySpec.from_config(dict(config))
        return OracleValue(
            name,
            spec.to_config(),
            mixing_step(spec),
            "min even T: |P^T(u,u) - 1/n'| <= 1/(2n') for all even s >= T",
        )
    for p, _ in d.params:
        if p not in config:
            raise ValueError(f"oracle {name} requires --{p.replace('_', '-')}")
    inputs = {
        p: config_value(p, config[p], read) for p, read in d.params + d.optional if p in config
    }
    return OracleValue(name, inputs, _encode(d.func(**inputs)), d.equation_tag)


def _encode(value):
    """An oracle's value as the CLI writes it: a named tuple as a dict of
    its fields, a Fraction as a float."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: _encode(v) for k, v in value._asdict().items()}
    if isinstance(value, Fraction):
        return float(value)
    return value
