import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

from disperse.rng import draw, mix64_array, stream_words
from disperse.topology import (
    COORDINATE_LIMIT,
    MAX_CAYLEY_VERTICES,
    Family,
    TopologySpec,
    build,
    config_bool,
    default_leaf_depth,
    with_leaf_depth,
)


def spec_for(name):
    return {
        "complete": TopologySpec.complete(10),
        "complete-loops": TopologySpec.complete(10, with_loops=True),
        "star": TopologySpec.star(6),
        "path": TopologySpec.path(),
        "cycle-odd": TopologySpec.cycle(9),
        "cycle-even": TopologySpec.cycle(8),
        "tree": TopologySpec.tree(3),
        "tree-cut": TopologySpec.tree(3, leaf_depth=4),
        "grid": TopologySpec.grid(2),
        "hypercube": TopologySpec.hypercube(4),
        "cayley": TopologySpec.cayley((8, 8), [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    }[name]


ALL_NAMES = [
    "complete",
    "complete-loops",
    "star",
    "path",
    "cycle-odd",
    "cycle-even",
    "tree",
    "tree-cut",
    "grid",
    "hypercube",
    "cayley",
]


# -- constants and constructors ----------------------------------------------


def test_limits():
    assert COORDINATE_LIMIT == 1 << 40
    assert MAX_CAYLEY_VERTICES == 1 << 20


def test_star_counts_hub_plus_leaves():
    t = build(TopologySpec.star(3))
    assert t.n_vertices == 4
    assert t.degree(0) == 3
    assert t.degree(2) == 1
    assert sorted(t.neighbors(0)) == [1, 2, 3]
    assert t.neighbors(2) == [0]


def test_complete_neighbor_indexing():
    t = build(TopologySpec.complete(5))
    assert t.degree(2) == 4
    assert t.neighbors(2) == [0, 1, 3, 4]
    tl = build(TopologySpec.complete(5, with_loops=True))
    assert tl.degree(2) == 5
    assert tl.neighbors(2) == [0, 1, 2, 3, 4]


def test_cycle_wraps():
    t = build(TopologySpec.cycle(5))
    assert set(t.neighbors(0)) == {1, 4}
    assert t.distance_to_origin(3) == 2


def test_tree_addressing():
    t = build(TopologySpec.tree(3))
    assert t.origin == ()
    assert t.neighbors(()) == [(0,), (1,), (2,)]
    assert t.degree(()) == 3
    # Internal vertex: parent first, then k-1 children.
    assert t.neighbors((1,)) == [(), (1, 0), (1, 1)]
    assert t.degree((1, 0)) == 3


def test_tree_truncation_leaf():
    t = build(TopologySpec.tree(3, leaf_depth=2))
    leaf = (0, 0)
    assert t.is_truncated_leaf(leaf)
    assert t.degree(leaf) == 1
    assert t.neighbors(leaf) == [(0,)]
    assert not t.is_truncated_leaf((0,))
    assert t.n_vertices == 10
    with pytest.raises(ValueError):
        t.validate_address((0, 0, 0))


def test_grid_neighbors():
    t = build(TopologySpec.grid(2))
    assert t.neighbors((0, 0)) == [(-1, 0), (1, 0), (0, -1), (0, 1)]
    assert t.distance_to_origin((3, -4)) == 7


def test_hypercube_neighbors():
    t = build(TopologySpec.hypercube(3))
    assert sorted(t.neighbors(0b101)) == [0b001, 0b100, 0b111]
    assert t.distance_to_origin(0b111) == 3
    assert t.n_vertices == 8


# -- ball sizes and pigeonhole radii ----------------------------------------


def test_ball_sizes_match_closed_forms():
    tree = build(TopologySpec.tree(3))
    assert [tree.ball_size(r) for r in range(4)] == [1, 4, 10, 22]
    grid = build(TopologySpec.grid(2))
    assert [grid.ball_size(r) for r in range(4)] == [1, 5, 13, 25]
    path = build(TopologySpec.path())
    assert [path.ball_size(r) for r in range(4)] == [1, 3, 5, 7]
    cube = build(TopologySpec.hypercube(4))
    assert [cube.ball_size(r) for r in range(6)] == [1, 5, 11, 15, 16, 16]
    cyc = build(TopologySpec.cycle(8))
    assert [cyc.ball_size(r) for r in range(6)] == [1, 3, 5, 7, 8, 8]


def test_ball_sizes_monotone_everywhere():
    for name in ALL_NAMES:
        t = build(spec_for(name))
        sizes = [t.ball_size(r) for r in range(8)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), name
        if t.n_vertices is not None:
            assert sizes[-1] <= t.n_vertices


def test_pigeonhole_radius_examples():
    assert build(TopologySpec.path()).pigeonhole_radius(100) == 50
    assert build(TopologySpec.tree(3)).pigeonhole_radius(4096) == 11
    assert build(TopologySpec.grid(2)).pigeonhole_radius(50) == 5
    assert build(TopologySpec.hypercube(16)).pigeonhole_radius(100) == 2
    assert build(TopologySpec.complete(10)).pigeonhole_radius(1) == 0
    assert build(TopologySpec.complete(10)).pigeonhole_radius(2) == 1


def test_pigeonhole_radius_rejects_overfill():
    t = build(TopologySpec.complete(5))
    with pytest.raises(ValueError):
        t.pigeonhole_radius(6)
    with pytest.raises(ValueError):
        t.pigeonhole_radius(0)


# -- bipartiteness ------------------------------------------------------------


BIPARTITE_TABLE = {
    "complete": False,  # n = 10 > 2 has odd cycles
    "complete-loops": False,
    "star": True,
    "path": True,
    "cycle-odd": False,
    "cycle-even": True,
    "tree": True,
    "tree-cut": True,
    "grid": True,
    "hypercube": True,
    "cayley": True,  # even torus
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_bipartite_table(name):
    assert build(spec_for(name)).is_bipartite() == BIPARTITE_TABLE[name]


def test_bipartite_edge_cases():
    assert build(TopologySpec.complete(2)).is_bipartite()
    assert not build(TopologySpec.cayley((9,), [(1,), (-1,)])).is_bipartite()
    assert not build(
        TopologySpec.cayley((3, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    ).is_bipartite()
    # A generator pair that closes an odd cycle.
    assert not build(TopologySpec.cayley((6,), [(1,), (-1,), (2,), (-2,)])).is_bipartite()


# -- cayley equivalences -------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 8, 17, 64])
def test_cayley_matches_cycle(n):
    cyc = build(TopologySpec.cycle(n))
    cay = build(TopologySpec.cayley((n,), [(1,), (-1,)]))
    assert cay.n_vertices == cyc.n_vertices
    assert cay.is_bipartite() == cyc.is_bipartite()
    for v in range(n):
        assert cay.distance_to_origin((v,)) == cyc.distance_to_origin(v)
        assert {w[0] for w in cay.neighbors((v,))} == set(cyc.neighbors(v))
    for r in range(n):
        assert cay.ball_size(r) == cyc.ball_size(r)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_cayley_matches_hypercube(d):
    cube = build(TopologySpec.hypercube(d))
    gens = []
    for i in range(d):
        g = [0] * d
        g[i] = 1
        gens.append(tuple(g))
    cay = build(TopologySpec.cayley((2,) * d, gens))
    assert cay.n_vertices == cube.n_vertices == 1 << d

    def tup(mask):
        return tuple((mask >> i) & 1 for i in range(d))

    for mask in range(1 << d):
        assert cay.distance_to_origin(tup(mask)) == cube.distance_to_origin(mask)
        assert {w for w in cay.neighbors(tup(mask))} == {
            tup(w) for w in cube.neighbors(mask)
        }
    for r in range(d + 2):
        assert cay.ball_size(r) == cube.ball_size(r)
    assert cay.is_bipartite() and cube.is_bipartite()


def test_cayley_rejects_non_generating_set():
    spec = TopologySpec.cayley((8,), [(2,), (-2,)])  # shape is fine
    with pytest.raises(ValueError, match="generate"):
        build(spec)


def test_cayley_rejects_asymmetric_or_oversized():
    with pytest.raises(ValueError, match="symmetric"):
        TopologySpec.cayley((8,), [(1,), (2,)])
    with pytest.raises(ValueError, match="width"):
        TopologySpec(Family.CAYLEY, moduli=(8, 8), generators=((1,), (7,)))
    with pytest.raises(ValueError, match="cap"):
        TopologySpec.cayley((2048, 2048), [(1, 0), (-1, 0)])


def test_cayley_refuses_an_empty_generator_list():
    with pytest.raises(ValueError, match="^cayley: generator list must be non-empty$"):
        TopologySpec.cayley((8,), [])


def test_loopless_K1_is_refused_when_made():
    # K_1 without loops has degree 0: no particle could ever move.
    with pytest.raises(ValueError, match="^complete without loops needs n >= 2 for positive degree$"):
        TopologySpec.complete(1)
    assert build(TopologySpec.complete(1, with_loops=True)).degree(0) == 1


def test_cayley_self_inverse_generator_allowed():
    # In Z_4, the element 2 is its own inverse; a single copy is symmetric.
    t = build(TopologySpec.cayley((4,), [(1,), (-1,), (2,)]))
    assert t.degree((0,)) == 3


# -- validation ---------------------------------------------------------------


def test_validate_rejects_bad_parameters():
    bad = [
        dict(family=Family.STAR, n=1),
        dict(family=Family.CYCLE, n=2),
        dict(family=Family.TREE, k=1),
        dict(family=Family.GRID, dim=0),
        dict(family=Family.COMPLETE, n=0),
        dict(family=Family.TREE, k=3, leaf_depth=-1),
        dict(family=Family.COMPLETE, n=5, k=3),  # foreign parameter
        dict(family=Family.PATH, n=7),
        dict(family=Family.GRID, dim=2, with_loops=True),
        # Past int64, the type of every vertex in every loop.
        dict(family=Family.COMPLETE, n=2**63 + 5),
        dict(family=Family.STAR, n=2**63 + 1),
        dict(family=Family.CYCLE, n=2**63 + 3),
    ]
    for fields in bad:
        with pytest.raises(ValueError):
            TopologySpec(**fields)


def test_integer_parameters_refuse_other_numbers():
    # A float n, k, dim or leaf_depth used to pass and fail mid-run.
    for make, name in (
        (lambda: TopologySpec.complete(1e4), "complete: n"),
        (lambda: TopologySpec.cycle(10.0), "cycle: n"),
        (lambda: TopologySpec.tree(3.5), "tree: k"),
        (lambda: TopologySpec.tree(3, leaf_depth=2.0), "tree: leaf_depth"),
        (lambda: TopologySpec.grid(2.0), "grid: dim"),
        (lambda: TopologySpec.hypercube(8.0), "hypercube: dim"),
        # A float modulus or residue used to be truncated, or to pass and
        # fail in build.
        (lambda: TopologySpec.cayley((8.5,), [(1,), (-1,)]), "cayley: each modulus"),
        (lambda: TopologySpec(Family.CAYLEY, moduli=(8.0,), generators=((1,), (-1,))),
         "cayley: each modulus"),
        (lambda: TopologySpec.cayley((8,), [(1.5,), (-1.5,)]), "cayley: each generator residue"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            make()
    # Any integer type is taken, and held as a Python int.
    spec = TopologySpec.tree(np.int64(3), leaf_depth=np.int32(4))
    assert spec == TopologySpec.tree(3, leaf_depth=4)
    assert type(spec.k) is int and type(spec.leaf_depth) is int
    spec = TopologySpec.cayley(np.array([8, 3]), np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]))
    assert spec == TopologySpec.cayley((8, 3), [(1, 0), (7, 0), (0, 1), (0, 2)])
    assert {type(c) for g in (spec.moduli, *spec.generators) for c in g} == {int}


def test_validate_address_accepts_and_rejects():
    cases = [
        (spec_for("complete"), 3, [10, -1, "x"]),
        (spec_for("star"), 6, [7, (0,)]),
        (spec_for("path"), -15, ["a", (1,)]),
        (spec_for("cycle-even"), 7, [8, -1]),
        (spec_for("tree"), (2, 0, 1), [(3,), (0, 2), "r"]),
        (spec_for("grid"), (5, -2), [(1,), (1.5, 0)]),
        (spec_for("hypercube"), 15, [16, -1]),
        (spec_for("cayley"), (7, 0), [(8, 0), (1,)]),
    ]
    for spec, good, bads in cases:
        t = build(spec)
        assert t.contains(good)
        for b in bads:
            assert not t.contains(b)


# -- config round trips --------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_config_round_trip(name):
    spec = spec_for(name)
    cfg = spec.to_config()
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in cfg.items())
    back = TopologySpec.from_config(cfg)
    assert back == spec


def test_from_config_errors():
    with pytest.raises(ValueError, match="family"):
        TopologySpec.from_config({"n": "5"})
    with pytest.raises(ValueError, match="unknown family"):
        TopologySpec.from_config({"family": "moebius"})
    with pytest.raises(ValueError, match="parenthesised"):
        TopologySpec.from_config(
            {"family": "cayley", "moduli": "8", "generators": "1,-1"}
        )


def test_config_booleans_have_one_spelling_rule():
    for raw in ("1", "true", "True", " YES ", "yes\n"):
        assert config_bool(raw) is True
    for raw in ("0", "false", "FALSE", " No "):
        assert config_bool(raw) is False
    for raw in ("", "on", "t", "2", "truee"):
        with pytest.raises(ValueError, match="boolean"):
            config_bool(raw)
    assert TopologySpec.from_config({"family": "complete", "n": "5", "with_loops": " True "}) == (
        TopologySpec.complete(5, with_loops=True)
    )
    with pytest.raises(ValueError, match="boolean"):
        TopologySpec.from_config({"family": "complete", "n": "5", "with_loops": "maybe"})


def test_which_configs_are_accepted_and_refused():
    # A parameter counts as given whenever it is not None, so n = 0 on
    # a family that takes no n is foreign, not absent.
    with pytest.raises(ValueError, match="not valid for this family"):
        TopologySpec(Family.PATH, n=0)
    with pytest.raises(ValueError, match="not valid for this family"):
        TopologySpec(Family.GRID, dim=2, leaf_depth=0)
    with pytest.raises(ValueError, match="boolean"):
        TopologySpec.from_config({"family": "complete", "n": "5", "with_loops": ""})
    with pytest.raises(ValueError, match="boolean"):
        TopologySpec.from_config({"family": "path", "with_loops": ""})
    # An empty value is an absent one.
    assert TopologySpec.from_config({"family": "path", "n": ""}) == TopologySpec.path()
    assert TopologySpec.from_config({"family": "tree", "k": "3", "leaf_depth": ""}) == (
        TopologySpec.tree(3)
    )
    assert TopologySpec.from_config({"family": "path", "with_loops": "false"}) == (
        TopologySpec.path()
    )
    with pytest.raises(ValueError, match="not valid for this family"):
        TopologySpec.from_config({"family": "path", "with_loops": "true"})
    for moduli in ("", ","):
        with pytest.raises(ValueError, match="moduli must be a non-empty"):
            TopologySpec.from_config({"family": "cayley", "moduli": moduli, "generators": "(1)"})
    with pytest.raises(ValueError, match="moduli must be a non-empty"):
        TopologySpec(Family.CAYLEY, moduli=(), generators=((1,),))
    # with_loops is written for every complete graph and for no other
    # family; leaf_depth = 0 (explicitly infinite) is kept.
    for name in ALL_NAMES:
        spec = spec_for(name)
        assert ("with_loops" in spec.to_config()) == (spec.family is Family.COMPLETE)
    assert TopologySpec.complete(4).to_config() == {
        "family": "complete", "n": "4", "with_loops": "false",
    }
    assert TopologySpec.tree(3, leaf_depth=0).to_config() == {
        "family": "tree", "k": "3", "leaf_depth": "0",
    }
    assert TopologySpec.from_config(TopologySpec.tree(3, leaf_depth=0).to_config()).leaf_depth == 0
    assert TopologySpec.cayley((4, 3), [(1, 0), (3, 0), (0, 1), (0, 2)]).to_config() == {
        "family": "cayley", "moduli": "4,3", "generators": "(1,0),(3,0),(0,1),(0,2)",
    }


def test_from_config_normalises_negative_generators():
    spec = TopologySpec.from_config(
        {"family": "cayley", "moduli": "8", "generators": "(1),(-1)"}
    )
    assert spec.generators == ((1,), (7,))


def test_cayley_residues_are_canonical_however_the_spec_is_made():
    want = TopologySpec.cayley((8, 3), [(1, 0), (7, 0), (0, 1), (0, 2)])
    made = [
        TopologySpec.cayley((8, 3), [(9, 3), (-1, 0), (0, -2), (0, 5)]),
        TopologySpec(
            Family.CAYLEY, moduli=(8, 3), generators=((-7, 0), (15, 0), (0, 4), (0, -1))
        ),
        TopologySpec.from_config(
            {"family": "cayley", "moduli": "8,3", "generators": "(1,0),(-1,0),(0,1),(0,-1)"}
        ),
    ]
    for spec in made:
        assert spec == want and hash(spec) == hash(want)
        assert build(spec).gens == want.generators
    # A width that does not match the moduli is left for the checks to name.
    for bad in (
        lambda: TopologySpec.cayley((8, 3), [(1,), (-1,)]),
        lambda: TopologySpec.from_config(
            {"family": "cayley", "moduli": "8,3", "generators": "(1),(-1)"}
        ),
    ):
        with pytest.raises(ValueError, match="width"):
            bad()


# -- defaults -----------------------------------------------------------------


def test_default_leaf_depth_examples():
    assert default_leaf_depth(3, 4096) == 37
    assert default_leaf_depth(3, 256) == 28
    assert default_leaf_depth(3, 1) == 8
    with pytest.raises(ValueError):
        default_leaf_depth(2, 100)


def test_with_leaf_depth_resolution():
    resolved = with_leaf_depth(TopologySpec.tree(3), 4096)
    assert resolved.leaf_depth == 37
    # Binary tree defaults to untruncated.
    assert with_leaf_depth(TopologySpec.tree(2), 100).leaf_depth == 0
    explicit = TopologySpec.tree(3, leaf_depth=5)
    assert with_leaf_depth(explicit, 4096) is explicit
    grid = TopologySpec.grid(2)
    assert with_leaf_depth(grid, 10) is grid


# -- sampling ------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,vertex",
    [
        (TopologySpec.grid(2), (0, 0)),
        (TopologySpec.complete(7), 3),
        (TopologySpec.complete(7, with_loops=True), 3),
        (TopologySpec.tree(3), (1,)),
        (TopologySpec.hypercube(4), 0),
        (TopologySpec.cycle(9), 4),
    ],
)
def test_both_loops_draw_uniform_neighbours_alike(spec, vertex):
    # The kernel moves by neighbor_array on mixed stream words, the
    # reference loop by neighbor(v, draw % degree): the same neighbour
    # draw for draw, uniform over the neighbour multiset.
    t = build(spec)
    deg = t.degree(vertex)
    key = 0xC0FFEE
    draws = 4000 * deg
    src = np.repeat(t.to_array([vertex]), draws, axis=-1)
    words = stream_words(key, np.arange(1, draws + 1))
    kernel = t.from_array(t.neighbor_array(src, mix64_array(words)))
    reference = [t.neighbor(vertex, draw(key, n) % deg) for n in range(1, draws + 1)]
    assert kernel == reference
    counts = {}
    for w in reference:
        counts[w] = counts.get(w, 0) + 1
    assert set(counts) == set(t.neighbors(vertex))
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001


# -- local distance structure ---------------------------------------------------


def walk_vertices(t, steps=60, seed=9):
    v = t.origin
    out = [v]
    for n in range(1, steps + 1):
        v = t.neighbor(v, draw(seed, n) % t.degree(v))
        out.append(v)
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_neighbor_distance_changes_by_at_most_one(name):
    t = build(spec_for(name))
    for v in walk_vertices(t):
        dv = t.distance_to_origin(v)
        for w in t.neighbors(v):
            assert abs(t.distance_to_origin(w) - dv) <= 1


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if BIPARTITE_TABLE[n]])
def test_bipartite_families_flip_distance_parity(name):
    # In a bipartite graph every edge joins the two classes, so the
    # origin-distance parity must flip across each edge.
    t = build(spec_for(name))
    for v in walk_vertices(t):
        dv = t.distance_to_origin(v)
        for w in t.neighbors(v):
            assert (t.distance_to_origin(w) - dv) % 2 == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_neighbor_relation_is_symmetric_as_multiset(name):
    t = build(spec_for(name))
    for v in walk_vertices(t, steps=25):
        for w in set(t.neighbors(v)):
            assert t.neighbors(v).count(w) == t.neighbors(w).count(v), (v, w)


# -- array forms -------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_array_form_matches_scalar_queries(name):
    t = build(spec_for(name))
    verts = walk_vertices(t)
    arr = t.to_array(verts)
    assert t.from_array(arr) == verts
    raw = np.array([draw(7, i) for i in range(1, len(verts) + 1)], dtype=np.uint64)
    want = [t.neighbor(v, int(r) % t.degree(v)) for v, r in zip(verts, raw.tolist())]
    assert t.from_array(t.neighbor_array(arr.copy(), raw.copy())) == want
    assert t.distance_array(arr).tolist() == [t.distance_to_origin(v) for v in verts]
    # Codes are distinct and below the span for vertices within the reach.
    reach = max(t.distance_to_origin(v) for v in verts)
    codes, span = t.vertex_codes(arr, reach), t.code_span(reach)
    distinct = {v: c for v, c in zip(verts, codes.tolist())}
    assert len(set(distinct.values())) == len(distinct)
    assert 0 <= codes.min() and codes.max() < span
    if t.max_distance is not None:
        assert reach <= t.max_distance == t.pigeonhole_radius(t.n_vertices)


@pytest.mark.parametrize("dim", [63, 64, 100])
def test_hypercube_array_form_spans_rows_of_63_bits(dim):
    t = build(TopologySpec.hypercube(dim))
    # Addresses with bits 62, 63 and 99 set, where the cube has them.
    top = [1 << b for b in (62, 63, 99) if b < dim]
    verts = top + [sum(top), (1 << dim) - 1, 0] + walk_vertices(t, steps=20)
    arr = t.to_array(verts)
    assert arr.shape == (-(-dim // 63), len(verts)) and arr.dtype == np.int64
    assert arr.min() >= 0
    assert t.from_array(arr) == verts
    raw = np.array([draw(5, i) for i in range(1, len(verts) + 1)], dtype=np.uint64)
    want = [t.neighbor(v, int(r) % dim) for v, r in zip(verts, raw.tolist())]
    assert t.from_array(t.neighbor_array(arr.copy(), raw.copy())) == want
    assert t.distance_array(arr).tolist() == [t.distance_to_origin(v) for v in verts]
    # 2^dim passes int64, so the engine lexsorts these rows instead of codes.
    assert t.code_span(dim) == 2**dim


@pytest.mark.parametrize(
    "spec, vertices",
    [
        (TopologySpec.tree(3, leaf_depth=4), [(), (1,), (2, 0), (0, 1, 1, 0)]),
        (TopologySpec.grid(3), [(0, 0, 0), (1, -2, 0), (-5, 3, 7)]),
        (TopologySpec.hypercube(70), [0, 1 << 62, 1 << 69, (1 << 70) - 1]),
    ],
    ids=["tree", "grid", "hypercube"],
)
def test_rows_take_their_destinations_in_place(spec, vertices):
    # The engine hands neighbor_array the rows it has just gathered for
    # the movers; these families write the destinations into them.
    t = build(spec)
    v = t.to_array(vertices * 8)
    raw = np.array([draw(3, i) for i in range(1, v.shape[-1] + 1)], dtype=np.uint64)
    want = [t.neighbor(u, int(r) % t.degree(u)) for u, r in zip(vertices * 8, raw.tolist())]
    dest = t.neighbor_array(v, raw)
    assert dest is v
    assert t.from_array(v) == want


def test_complete_with_loops_draws_destinations_without_the_source():
    # With loops a K_n destination is the draw mod n: any sources with the
    # same draws give the same destinations, so the engine gathers none
    # and passes None.
    t = build(TopologySpec.complete(10, with_loops=True))
    assert not t.reads_source
    raw = np.array([draw(11, i) for i in range(1, 41)], dtype=np.uint64)
    want = [t.neighbor(0, int(r) % 10) for r in raw.tolist()]
    sources = [
        np.zeros(40, dtype=np.int64),
        np.random.default_rng(4).integers(0, 10, 40),
        np.array(want, dtype=np.int64),
        None,
    ]
    for v in sources:
        assert t.neighbor_array(v, raw.copy()).tolist() == want


def test_complete_without_loops_reads_the_source():
    # Without loops a destination skips its source, so other sources with
    # the same draws give other destinations; every family but K_n with
    # loops reads its sources.
    t = build(TopologySpec.complete(10))
    raw = np.array([draw(11, i) for i in range(1, 41)], dtype=np.uint64)
    v = np.arange(40, dtype=np.int64) % 10
    want = [t.neighbor(u, int(r) % 9) for u, r in zip(v.tolist(), raw.tolist())]
    assert t.neighbor_array(v.copy(), raw.copy()).tolist() == want
    assert t.neighbor_array(np.zeros(40, dtype=np.int64), raw.copy()).tolist() != want
    assert [n for n in ALL_NAMES if not build(spec_for(n)).reads_source] == ["complete-loops"]


def test_a_tree_move_past_int64_leaves_the_rows_as_given():
    # Level 1 of tree(2^40) is the deepest whose indices fit an int64:
    # a move down from it raises before anything is written.
    k = 2**40
    t = build(TopologySpec.tree(k, leaf_depth=0))
    v = t.to_array([(k - 1,), ()])
    given = v.copy()
    with pytest.raises(ValueError, match="int64"):
        t.neighbor_array(v, np.array([1, 0], dtype=np.uint64))  # to level 2; to (0,)
    assert v.tolist() == given.tolist()
    # Up from level 1 and down from the root stay within it.
    assert t.from_array(t.neighbor_array(v, np.array([0, 5], dtype=np.uint64))) == [(), (5,)]


def test_tree_codes_hold_while_threads_grow_the_level_table():
    # Threads ask one tree for codes at reaches beyond any before, all at
    # once, switching as often as the interpreter lets them: a call never
    # indexes a shorter table that another thread published meanwhile.
    # Each round is a fresh tree, whose table starts at one level.
    workers = 2 * (os.cpu_count() or 1) + 1
    reaches = range(1, 40)
    failures = []

    def ask(t, start):
        try:
            start.wait()
            for reach in reaches:
                v = np.array([[reach, 1, reach], [0, 2, 2**reach - 1]], dtype=np.int64)
                want = [t.ball_size(d - 1) + x for d, x in v.T.tolist()]
                assert t.vertex_codes(v, reach).tolist() == want
        except Exception as e:  # reported by the main thread
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and not failures:
            t = build(TopologySpec.tree(3, leaf_depth=0))
            start = threading.Barrier(workers, timeout=30)
            threads = [threading.Thread(target=ask, args=(t, start)) for _ in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[0]
