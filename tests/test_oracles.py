import itertools
import math
from fractions import Fraction

import pytest

from disperse.oracles import (
    MIXING_VERTEX_CAP,
    ORACLES,
    KnState,
    LazyOccupancyProfile,
    evaluate,
    grid2d_expected_returns,
    hypercube_return_probability,
    kn_expected_changes,
    kn_subcritical_time,
    lazy_expected_range_changes,
    lazy_subcritical_time,
    line_returns_pmf,
    line_returns_tail,
    mixing_step,
    path_distance_bounds,
    tree_constants,
    tree_depth_bounds,
    tree_ruin_probability,
)
from disperse.topology import TopologySpec


# -- complete-graph change formulas -------------------------------------------


def test_kn_changes_reference_point():
    v = kn_expected_changes(KnState(100, 30, 20))
    assert v.EX == pytest.approx(5.4627, abs=1e-4)
    assert v.EY == pytest.approx(11.5664, abs=1e-4)
    assert v.EdH == v.EY - v.EX
    assert not v.approximate
    assert kn_expected_changes(KnState(100, 30, 20, with_loops=False)).approximate


def test_kn_changes_exact_enumeration():
    # Direct expectation over all placements of U balls into n boxes,
    # the first H of which hold a settled particle.
    for n, H, U in [(3, 1, 2), (4, 2, 3), (5, 0, 2), (5, 3, 1)]:
        ex = ey = 0.0
        total = n**U
        for balls in itertools.product(range(n), repeat=U):
            ex += sum(1 for b in range(H) if b in balls)
            ey += sum(
                1
                for i, b in enumerate(balls)
                if b >= H and balls.count(b) == 1
            )
        v = kn_expected_changes(KnState(n, H, U))
        assert v.EX == pytest.approx(ex / total, abs=1e-12)
        assert v.EY == pytest.approx(ey / total, abs=1e-12)


def test_kn_changes_validation():
    with pytest.raises(ValueError):
        kn_expected_changes(KnState(10, 3, 0))
    with pytest.raises(ValueError):
        KnState(0, 0, 2)
    with pytest.raises(ValueError):
        KnState(10, -1, 2)


def test_kn_subcritical_time_values():
    assert kn_subcritical_time(1000, 0.2) == 70
    assert kn_subcritical_time(1000, 0.4) == 35
    assert kn_subcritical_time(2, 2.0) == 1
    with pytest.raises(ValueError):
        kn_subcritical_time(1000, 0.0)
    with pytest.raises(ValueError):
        kn_subcritical_time(0, 0.5)


# -- lazy range formulas --------------------------------------------------------


def test_lazy_range_exact_values():
    # Reference values from exact rational arithmetic.
    prof = LazyOccupancyProfile(100, 0.5, (2,) * 10, E_empty=60)
    v = lazy_expected_range_changes(prof)
    ref_plus = 60 * (1 - Fraction(199, 200) ** 20)
    assert v.ER_plus == pytest.approx(float(ref_plus), abs=1e-12)

    prof2 = LazyOccupancyProfile(100, 0.5, (2, 2), E_empty=90)
    v2 = lazy_expected_range_changes(prof2)
    ref_minus = (
        2 * Fraction(1, 2) ** 2 * Fraction(99, 100) ** 2 * Fraction(199, 200) ** 2
    )
    assert v2.ER_minus_exact == pytest.approx(float(ref_minus), abs=1e-12)
    assert float(ref_minus) == pytest.approx(0.485162, abs=5e-7)


def test_lazy_profile_invariants():
    assert LazyOccupancyProfile(10, 0.5, (2, 3), 1).U == 5
    with pytest.raises(ValueError):
        LazyOccupancyProfile(10, 0.5, (1,), 0)
    with pytest.raises(ValueError):
        LazyOccupancyProfile(10, 1.5, (2,), 0)
    with pytest.raises(ValueError):
        LazyOccupancyProfile(3, 0.5, (2, 2), 2)


def test_lazy_profile_refuses_a_negative_empty_count():
    with pytest.raises(ValueError, match="^empty count must be nonnegative$"):
        LazyOccupancyProfile(10, 0.5, (2,), -1)


def test_lazy_subcritical_time_refuses_a_graph_without_vertices():
    for n in (0, -3):
        with pytest.raises(ValueError, match="^need n > 0$"):
            lazy_subcritical_time(n, 0.5, 0.1)


def test_lazy_subcritical_time_values():
    assert lazy_subcritical_time(1000, 0.5, 0.05) == 1106
    assert lazy_subcritical_time(1000, 0.5, 1.0) == 56
    assert lazy_subcritical_time(2, 1.0, 4.0) == 1
    with pytest.raises(ValueError):
        lazy_subcritical_time(1000, 0.0, 0.1)
    with pytest.raises(ValueError):
        lazy_subcritical_time(1000, 0.5, 0.0)


# -- tree constants and bands -----------------------------------------------------


def test_tree_constants_frozen():
    c3 = tree_constants(3)
    assert c3.alpha_k == pytest.approx(0.5391545793816299, abs=1e-12)
    assert c3.beta_k == pytest.approx(0.12302341547618087, abs=1e-12)
    c4 = tree_constants(4)
    assert c4.alpha_k == pytest.approx(0.3437110184854508, abs=1e-12)
    assert c4.beta_k == pytest.approx(0.06917291654647395, abs=1e-12)
    with pytest.raises(ValueError):
        tree_constants(2)


def test_tree_depth_bounds_values():
    lo, hi = tree_depth_bounds(3, 4096, 0.2)
    assert lo == pytest.approx(15.130145, abs=1e-5)
    assert hi == pytest.approx(27.323719, abs=1e-5)
    # Self-consistency with the published constants.
    c = tree_constants(3)
    logm = math.log(4096, 2)
    assert lo == pytest.approx((2 - c.alpha_k - 0.2) * logm, abs=1e-9)
    assert hi == pytest.approx((2 - c.beta_k + 0.4) * logm, abs=1e-9)
    assert lo < hi
    with pytest.raises(ValueError):
        tree_depth_bounds(3, 1, 0.2)
    with pytest.raises(ValueError):
        tree_depth_bounds(3, 100, 0.0)


def test_tree_ruin_values():
    assert tree_ruin_probability(3, 10) == 2.0**-10
    assert tree_ruin_probability(4, 3) == pytest.approx(1 / 27, abs=1e-15)
    assert tree_ruin_probability(3, 0) == 1.0
    with pytest.raises(ValueError):
        tree_ruin_probability(2, 5)
    with pytest.raises(ValueError):
        tree_ruin_probability(3, -1)


# -- line return statistics -------------------------------------------------------


def test_line_pmf_exact_fractions():
    assert line_returns_pmf(1, 0) == Fraction(1, 2)
    assert line_returns_pmf(1, 1) == Fraction(1, 2)
    assert line_returns_pmf(3, 2) == Fraction(1, 4)
    assert line_returns_pmf(4, 4) == Fraction(1, 16)  # r=T collapses to 2^-T


@pytest.mark.parametrize("T", range(1, 9))
def test_line_pmf_normalises(T):
    assert sum(line_returns_pmf(T, r) for r in range(T + 1)) == 1


def test_line_pmf_validation():
    with pytest.raises(ValueError):
        line_returns_pmf(0, 0)
    with pytest.raises(ValueError):
        line_returns_pmf(3, 4)
    with pytest.raises(ValueError):
        line_returns_pmf(3, -1)


def test_line_tail_refuses_a_horizon_below_one():
    with pytest.raises(ValueError, match="^need T >= 1$"):
        line_returns_tail(0, 0)


def test_line_tail_refuses_a_count_outside_the_horizon():
    for r in (-1, 6):
        with pytest.raises(ValueError, match="^need 0 <= r <= T$"):
            line_returns_tail(5, r)


def test_line_tail_exact_and_bound():
    exact, bound = line_returns_tail(5, 0)
    assert exact == 1 and bound == math.inf
    exact, bound = line_returns_tail(5, 5)
    assert exact == line_returns_pmf(5, 5)
    assert bound == pytest.approx(float(exact), rel=1e-12)  # tight at r=T
    for T in range(1, 10):
        for r in range(1, T + 1):
            exact, bound = line_returns_tail(T, r)
            assert float(exact) <= bound + 1e-15
    # Tail telescopes against the pmf.
    assert line_returns_tail(4, 2)[0] == sum(
        line_returns_pmf(4, r) for r in (2, 3, 4)
    )


# -- grid and hypercube returns -----------------------------------------------------


def test_grid2d_returns_prefix():
    assert grid2d_expected_returns(0) == 1.0
    assert grid2d_expected_returns(1) == 1.25
    assert grid2d_expected_returns(2) == 1.390625
    with pytest.raises(ValueError):
        grid2d_expected_returns(-1)


def test_grid2d_returns_match_binomial_form():
    for t in (3, 7, 20):
        direct = sum(math.comb(2 * s, s) ** 2 / 16.0**s for s in range(t + 1))
        assert grid2d_expected_returns(t) == pytest.approx(direct, rel=1e-12)
    r = [grid2d_expected_returns(t) for t in range(30)]
    assert all(a < b for a, b in zip(r, r[1:]))


def test_hypercube_return_values():
    assert hypercube_return_probability(1, 2) == 1
    assert hypercube_return_probability(1, 3) == 0
    assert hypercube_return_probability(2, 2) == Fraction(1, 2)
    assert hypercube_return_probability(3, 2) == Fraction(1, 3)
    assert hypercube_return_probability(6, 0) == 1
    for s in (1, 3, 9):
        assert hypercube_return_probability(4, s) == 0  # odd steps, bipartite
    v = hypercube_return_probability(10, 40)
    assert 0 < v < 1
    with pytest.raises(ValueError):
        hypercube_return_probability(0, 2)
    with pytest.raises(ValueError):
        hypercube_return_probability(3, -1)


def test_path_distance_bounds_values():
    lo, hi = path_distance_bounds(100, 0.2)
    assert lo == 50
    assert hi == pytest.approx(480.0 * math.log(100), rel=1e-12)
    assert path_distance_bounds(5, 0.1)[0] == 2
    with pytest.raises(ValueError):
        path_distance_bounds(1, 0.2)
    with pytest.raises(ValueError):
        path_distance_bounds(10, 0.0)


NON_FINITE_CALLS = {
    "kn-time-delta": (lambda x: kn_subcritical_time(1000, x), "delta"),
    "lazy-time-alpha": (lambda x: lazy_subcritical_time(1000, 0.5, x), "alpha"),
    "tree-depth-eps": (lambda x: tree_depth_bounds(3, 100, x), "eps"),
    "path-bounds-eps": (lambda x: path_distance_bounds(100, x), "eps"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", list(NON_FINITE_CALLS))
def test_closed_forms_refuse_non_finite_parameters(name, value):
    call, param = NON_FINITE_CALLS[name]
    with pytest.raises(ValueError, match=f"^{param} must be"):
        call(value)


# -- mixing step ----------------------------------------------------------------------


def test_mixing_step_hypercube_values():
    assert mixing_step(TopologySpec.hypercube(1)) == 2
    assert mixing_step(TopologySpec.hypercube(2)) == 2
    assert mixing_step(TopologySpec.hypercube(3)) == 2
    assert mixing_step(TopologySpec.hypercube(10)) == 14


def test_mixing_step_cycle_values():
    expected = {3: 4, 4: 2, 8: 4, 9: 24}
    for n, T in expected.items():
        assert mixing_step(TopologySpec.cycle(n)) == T


def test_mixing_step_cayley_equivalences():
    assert mixing_step(
        TopologySpec.cayley((8,), [(1,), (-1,)])
    ) == mixing_step(TopologySpec.cycle(8))
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert mixing_step(TopologySpec.cayley((2, 2, 2), gens)) == mixing_step(
        TopologySpec.hypercube(3)
    )


def test_mixing_step_grows_with_cycle_length():
    vals = [mixing_step(TopologySpec.cycle(n)) for n in (8, 16, 32, 64)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mixing_step_with_nothing_left_to_mix():
    # Z_2 under its one generator is K_2: its only eigenvalues are +1 and -1.
    assert mixing_step(TopologySpec.cayley((2,), [(1,)])) == 2


def test_mixing_step_error_paths():
    with pytest.raises(ValueError, match="generate"):
        mixing_step(TopologySpec.cayley((8,), [(2,), (-2,)]))
    with pytest.raises(ValueError, match="too large"):
        mixing_step(TopologySpec.cycle(MIXING_VERTEX_CAP + 2))
    assert mixing_step(TopologySpec.hypercube(16)) > 0
    with pytest.raises(ValueError, match="too large"):
        mixing_step(TopologySpec.hypercube(17))
    with pytest.raises(ValueError, match="not defined"):
        mixing_step(TopologySpec.grid(2))
    with pytest.raises(ValueError, match="not defined"):
        mixing_step(TopologySpec.path())


# -- registry and evaluate ---------------------------------------------------------------


def test_registry_names_and_shape():
    assert set(ORACLES) == {
        "kn-changes",
        "kn-time",
        "lazy-range",
        "lazy-time",
        "tree-constants",
        "tree-depth",
        "tree-ruin",
        "line-pmf",
        "line-tail",
        "grid2d-returns",
        "hypercube-return",
        "path-bounds",
    }
    for name, d in ORACLES.items():
        assert callable(d.func)
        assert d.equation_tag
        assert all(isinstance(p, str) for p, _ in d.params)


def test_evaluate_tree_ruin():
    ov = evaluate("tree-ruin", {"k": 3, "d": 10})
    assert ov.name == "tree-ruin"
    assert ov.value == 0.0009765625
    assert ov.inputs == {"k": 3, "d": 10}
    assert "(k-1)" in ov.equation_tag


def test_evaluate_composite_values():
    ov = evaluate("kn-changes", {"n": 100, "H": 30, "U": 20})
    assert set(ov.value) == {"EX", "EY", "EdH", "approximate"}
    ov = evaluate("line-tail", {"T": 4, "r": 2})
    assert ov.value["exact"] == pytest.approx(
        float(sum(line_returns_pmf(4, r) for r in (2, 3, 4)))
    )


def test_evaluate_mixing_step_from_config():
    ov = evaluate("mixing-step", {"family": "cycle", "n": "9"})
    assert ov.value == 24
    assert ov.inputs["family"] == "cycle"


def test_evaluate_unknown_name():
    with pytest.raises(KeyError):
        evaluate("krylov-subspace", {})


def test_paired_results_are_named_tuples_that_unpack():
    lo, hi = band = tree_depth_bounds(3, 4096, 0.2)
    assert (band.lower, band.upper) == (lo, hi)
    assert path_distance_bounds(100, 0.2).lower == path_distance_bounds(100, 0.2)[0] == 50
    exact, bound = tail = line_returns_tail(4, 2)
    assert (tail.exact, tail.bound) == (exact, bound)
    assert tree_constants(3)._fields == ("alpha_k", "beta_k")
