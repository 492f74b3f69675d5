"""Graph families for the dispersion process.

Each family answers degree / neighbour / distance / ball-size queries
at a vertex address without materialising the graph, so the infinite
families (line, grid, tree) cost nothing beyond the vertices actually
visited. The finite abelian Cayley family is the one exception: its
distance and bipartiteness queries come from one BFS of the whole
group per process, capped at MAX_CAYLEY_VERTICES elements.

Vertex addresses by family:

    complete, star   int index in [0, n); star hub = 0, leaves 1..n-1
    path, cycle      int offset (cycle reduced mod n)
    grid             tuple of dim ints
    hypercube        int bitmask of dim bits
    tree             tuple of child indices from the root (root = ())
    cayley           tuple of residues, one per modulus

Array forms. Every family also answers neighbour and distance queries
on int64 vertex arrays, the state of every engine loop. The arrays hold
the int addresses above, with four exceptions. The grid's array holds
dim rows of coordinates. The hypercube's array holds ceil(dim/63) rows,
row r holding bits 63r to 63r + 62 of the bitmask. The cayley array
holds one mixed-radix int per vertex, the first residue most
significant. The tree's array holds (depth, index-in-level) pairs as two
rows: the parent of (d, x) is (d-1, x // (k-1)), or the root from depth
1, and child c of a non-root vertex is (d+1, x*(k-1) + c), which keeps
the tuple addresses' neighbour order. `to_array`/`from_array` convert
between the two forms; a tree address on a level whose indices do not
all fit an int64 raises ValueError, as a move there does. For the
engine's occupancy keys, `code_span(reach)` gives the exact number of
codes that the vertices within distance reach of the origin need, as a
Python int that may pass int64, and `vertex_codes` numbers those
vertices compactly below it. The engine asks for codes only where keys
over that span fit an int64; otherwise it sorts the array rows
themselves.

Every topology query is read-only after construction but one: the
tree's `vertex_codes` replaces its table of per-level offsets with a
longer one the first time it is asked for a reach beyond any before.
Each call indexes the table it read or built itself, never one another
thread published meanwhile, so concurrent calls give the same codes.

`neighbor_array` may overwrite both its arguments: the tree, the grid
and the hypercube write the destinations into the vertex rows they are
given, which the engine has just gathered for the movers.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Any, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Family",
    "TopologySpec",
    "Topology",
    "build",
    "default_leaf_depth",
    "as_int",
    "config_bool",
    "config_value",
    "COORDINATE_LIMIT",
    "INT64_MAX",
    "MAX_CAYLEY_VERTICES",
]

# Engine aborts a run once any coordinate magnitude exceeds this; the
# known bounds keep particles within O(M log M) of the origin, so a
# hit signals either a pathological run or a bug, not normal motion.
COORDINATE_LIMIT = 1 << 40

# Largest value of an array-form vertex, code or occupancy key.
INT64_MAX = (1 << 63) - 1

# Cayley queries materialise the group via BFS; keep that bounded.
MAX_CAYLEY_VERTICES = 1 << 20


class Family(str, Enum):
    COMPLETE = "complete"
    STAR = "star"
    PATH = "path"
    CYCLE = "cycle"
    TREE = "tree"
    GRID = "grid"
    HYPERCUBE = "hypercube"
    CAYLEY = "cayley"


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of one graph, checked when it is made.

    leaf_depth applies to trees only: None means "unset, let the
    harness fill the default truncation rule", 0 means explicitly
    infinite, and a positive value truncates at that depth.

    Two module tables state the parameters once: those each family takes
    (_FAMILY_FIELDS) and how each is read and written (_FIELDS). One that
    differs from its default here is given, and is refused on a family
    that does not take it.
    """

    family: Family
    n: Optional[int] = None
    k: Optional[int] = None
    dim: Optional[int] = None
    leaf_depth: Optional[int] = None
    with_loops: bool = False
    moduli: Optional[tuple[int, ...]] = None
    generators: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        f = self.family
        extra = [
            name
            for name, _, _ in _FIELDS
            if name not in _FAMILY_FIELDS[f] and getattr(self, name) != getattr(TopologySpec, name)
        ]
        if extra:
            raise ValueError(f"{f.value}: parameters not valid for this family: {sorted(extra)}")
        for name in ("n", "k", "dim", "leaf_depth"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, as_int(f"{f.value}: {name}", value))

        if f in (Family.COMPLETE, Family.STAR, Family.CYCLE):
            if self.n is None or self.n < 1:
                raise ValueError(f"{f.value}: n >= 1 required")
            if self.n > INT64_MAX:
                raise ValueError(f"{f.value}: n <= {INT64_MAX} (the int64 limit) required")
            if f is Family.STAR and self.n < 2:
                raise ValueError("star: need at least one leaf (n >= 2)")
            if f is Family.CYCLE and self.n < 3:
                raise ValueError("cycle: n >= 3 required")
            if f is Family.COMPLETE and not self.with_loops and self.n < 2:
                raise ValueError("complete without loops needs n >= 2 for positive degree")
        elif f is Family.TREE:
            if self.k is None or self.k < 2:
                raise ValueError("tree: k >= 2 required")
            if self.leaf_depth is not None and self.leaf_depth < 0:
                raise ValueError("tree: leaf_depth must be >= 0")
        elif f in (Family.GRID, Family.HYPERCUBE):
            if self.dim is None or self.dim < 1:
                raise ValueError(f"{f.value}: dim >= 1 required")
        elif f is Family.CAYLEY:
            mods = tuple(as_int("cayley: each modulus", m) for m in self.moduli or ())
            if not mods or min(mods) < 2:
                raise ValueError("cayley: moduli must be a non-empty tuple of ints >= 2")
            if not self.generators:
                raise ValueError("cayley: generator list must be non-empty")
            if any(len(g) != len(mods) for g in self.generators):
                raise ValueError("cayley: generator width must match moduli")
            # Canonical generators: integer residues, each reduced mod its
            # modulus, here and nowhere else.
            gens = tuple(
                tuple(as_int("cayley: each generator residue", c) % m for c, m in zip(g, mods))
                for g in self.generators
            )
            object.__setattr__(self, "moduli", mods)
            object.__setattr__(self, "generators", gens)
            # Symmetric as a multiset: count(g) == count(-g).
            for g in set(gens):
                inv = tuple((-c) % m for c, m in zip(g, mods))
                if gens.count(g) != gens.count(inv):
                    raise ValueError(f"cayley: generator set not symmetric at {g}")
            n = math.prod(mods)
            if n > MAX_CAYLEY_VERTICES:
                raise ValueError(f"cayley: group size {n} exceeds cap {MAX_CAYLEY_VERTICES}")

    # -- constructors ------------------------------------------------

    @staticmethod
    def complete(n: int, with_loops: bool = False) -> "TopologySpec":
        return TopologySpec(Family.COMPLETE, n=n, with_loops=with_loops)

    @staticmethod
    def star(leaves: int) -> "TopologySpec":
        return TopologySpec(Family.STAR, n=leaves + 1)

    @staticmethod
    def path() -> "TopologySpec":
        return TopologySpec(Family.PATH)

    @staticmethod
    def cycle(n: int) -> "TopologySpec":
        return TopologySpec(Family.CYCLE, n=n)

    @staticmethod
    def tree(k: int, leaf_depth: Optional[int] = None) -> "TopologySpec":
        return TopologySpec(Family.TREE, k=k, leaf_depth=leaf_depth)

    @staticmethod
    def grid(dim: int) -> "TopologySpec":
        return TopologySpec(Family.GRID, dim=dim)

    @staticmethod
    def hypercube(dim: int) -> "TopologySpec":
        return TopologySpec(Family.HYPERCUBE, dim=dim)

    @staticmethod
    def cayley(moduli: Sequence[int], generators: Iterable[Sequence[int]]) -> "TopologySpec":
        return TopologySpec(Family.CAYLEY, moduli=tuple(moduli), generators=tuple(generators))

    # -- flat config serialisation -----------------------------------

    def to_config(self) -> dict[str, str]:
        out = {"family": self.family.value}
        for name, _, write in _FIELDS:
            value = getattr(self, name)
            if name in _FAMILY_FIELDS[self.family] and value is not None:
                out[name] = write(value)
        return out

    @staticmethod
    def from_config(cfg: dict[str, str]) -> "TopologySpec":
        family = config_value("family", cfg.get("family"), _family)
        given = {
            name: config_value(name, cfg[name], read) for name, read, _ in _FIELDS if name in cfg
        }
        return TopologySpec(family, **given)


def as_int(name: str, value) -> int:
    """`value` as a Python int, from any integer type; anything else, such
    as a float, is a ValueError that names `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_float(name: str, value) -> float:
    """`value` as a Python float, from any real number type (numpy's
    too); anything else, such as a string, is a ValueError that names
    `name`."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


def config_bool(raw: str) -> bool:
    """A flat config's boolean: 1, true or yes, or 0, false or no, in any
    case and with surrounding whitespace; anything else is a ValueError."""
    value = raw.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"{raw!r} is not a boolean (true/false, yes/no, 1/0)")


def config_value(key: str, raw: str, read):
    """`read(raw)` for one flat config key; a ValueError names the key."""
    try:
        return read(raw)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None


def _family(raw: Optional[str]) -> Family:
    if raw is None:
        raise ValueError("missing")
    try:
        return Family(raw)
    except ValueError:
        raise ValueError(f"unknown family {raw!r}") from None


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _generators(raw: str) -> tuple[tuple[int, ...], ...]:
    tuples = re.findall(r"\(([^()]*)\)", raw)
    if not tuples:
        raise ValueError("must be parenthesised tuples")
    return tuple(_ints(body) for body in tuples)


def _ints_text(ints: Iterable[int]) -> str:
    return ",".join(map(str, ints))


def _optional(read):
    return lambda raw: read(raw) if raw else None  # an empty value is an absent one


# The parameters each family takes, beside its name.
_FAMILY_FIELDS = {
    Family.COMPLETE: ("n", "with_loops"),
    Family.STAR: ("n",),
    Family.PATH: (),
    Family.CYCLE: ("n",),
    Family.TREE: ("k", "leaf_depth"),
    Family.GRID: ("dim",),
    Family.HYPERCUBE: ("dim",),
    Family.CAYLEY: ("moduli", "generators"),
}

# (field, read, write): each parameter read from a flat config's text and
# written back, in the order to_config writes them.
_FIELDS = (
    *((name, _optional(int), str) for name in ("n", "k", "dim", "leaf_depth")),
    ("with_loops", config_bool, lambda loops: "true" if loops else "false"),
    ("moduli", _optional(_ints), _ints_text),
    ("generators", _optional(_generators), lambda gs: ",".join(f"({_ints_text(g)})" for g in gs)),
)


def default_leaf_depth(k: int, particles: int, eps: float = 0.25) -> int:
    """Default tree truncation: the depth upper bound plus slack.

    ceil((2 - beta_k + 2*eps) * log_{k-1} M) + 8 with eps = 0.25, so a
    run that behaves per the depth band never sees a leaf.
    """
    if k < 3:
        raise ValueError("default leaf depth rule needs k >= 3")
    if particles < 2:
        return 8
    beta = 1.0 / 3.0 - 1.0 / (3.0 * math.log(k, k - 1))
    return math.ceil((2.0 - beta + 2.0 * eps) * math.log(particles, k - 1)) + 8


# ---------------------------------------------------------------------------
# Family implementations
# ---------------------------------------------------------------------------


class Topology:
    """Query interface bound to one validated TopologySpec."""

    spec: TopologySpec
    origin: Any
    n_vertices: Optional[int]  # None when infinite

    @property
    def unbounded(self) -> bool:
        """True when coordinates can grow without limit: the graph is infinite."""
        return self.n_vertices is None

    def degree(self, v: Any) -> int:
        raise NotImplementedError

    def neighbor(self, v: Any, i: int) -> Any:
        """The i-th neighbour of v, 0 <= i < degree(v), fixed order."""
        raise NotImplementedError

    def neighbors(self, v: Any) -> list[Any]:
        return [self.neighbor(v, i) for i in range(self.degree(v))]

    def distance_to_origin(self, v: Any) -> int:
        raise NotImplementedError

    def ball_size(self, r: int) -> int:
        raise NotImplementedError

    def pigeonhole_radius(self, particles: int) -> int:
        if particles < 1:
            raise ValueError("particle count must be >= 1")
        if self.n_vertices is not None and particles > self.n_vertices:
            raise ValueError(f"{particles} particles exceed {self.n_vertices} vertices")
        r = 0
        while self.ball_size(r) < particles:
            r += 1
        return r

    def is_bipartite(self) -> bool:
        raise NotImplementedError

    def contains(self, v: Any) -> bool:
        try:
            self.validate_address(v)
        except ValueError:
            return False
        return True

    def validate_address(self, v: Any) -> None:
        raise NotImplementedError

    def is_truncated_leaf(self, v: Any) -> bool:
        """True only on truncated trees at depth == leaf_depth."""
        return False

    # -- array form ----------------------------------------------------

    max_distance: Optional[int] = None  # farthest vertex from the origin

    def to_array(self, vertices: Sequence[Any]) -> np.ndarray:
        return np.array(vertices, dtype=np.int64)

    def from_array(self, v: np.ndarray) -> list[Any]:
        return v.tolist()

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """neighbor(v, raw % degree(v)) of each vertex, for uint64 draws
        `raw`. Both arguments may be overwritten, and the result may be
        `v` itself; a move that raises leaves `v` as given."""
        raise NotImplementedError

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def code_span(self, reach: int) -> int:
        """Exact width of the codes of the vertices within distance `reach`
        of the origin; it may pass int64."""
        return self.n_vertices

    def vertex_codes(self, v: np.ndarray, reach: int) -> np.ndarray:
        """Distinct codes in [0, code_span(reach)) of vertices within
        distance `reach` of the origin. Called only where the engine's
        occupancy keys over that span fit an int64."""
        return v


class _Complete(Topology):
    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.n = spec.n
        self.with_loops = spec.with_loops
        self.origin = 0
        self.n_vertices = spec.n

    def degree(self, v: Any) -> int:
        return self.n if self.with_loops else self.n - 1

    def neighbor(self, v: Any, i: int) -> Any:
        if self.with_loops:
            return i
        return i if i < v else i + 1

    def distance_to_origin(self, v: Any) -> int:
        return 0 if v == 0 else 1

    def ball_size(self, r: int) -> int:
        return 1 if r == 0 else self.n

    def is_bipartite(self) -> bool:
        if self.with_loops:
            return False
        return self.n == 2

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"bad complete-graph vertex {v!r}")

    max_distance = 1

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        dest = _remainder(raw, self.degree(self.origin))
        if not self.with_loops:
            dest += dest >= v
        return dest

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return (v != 0).astype(np.int64)


class _Star(Topology):
    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.n = spec.n
        self.leaves = spec.n - 1
        self.origin = 0
        self.n_vertices = spec.n

    def degree(self, v: Any) -> int:
        return self.leaves if v == 0 else 1

    def neighbor(self, v: Any, i: int) -> Any:
        return i + 1 if v == 0 else 0

    def distance_to_origin(self, v: Any) -> int:
        return 0 if v == 0 else 1

    def ball_size(self, r: int) -> int:
        return 1 if r == 0 else self.n

    def is_bipartite(self) -> bool:
        return True

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"bad star vertex {v!r}")

    max_distance = 1

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        # A leaf's one neighbour is the hub; its draw is spent all the same.
        dest = _remainder(raw, self.leaves)
        dest += 1
        dest *= v == 0
        return dest

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return (v != 0).astype(np.int64)


class _Path(Topology):
    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.origin = 0
        self.n_vertices = None

    def degree(self, v: Any) -> int:
        return 2

    def neighbor(self, v: Any, i: int) -> Any:
        return v - 1 if i == 0 else v + 1

    def distance_to_origin(self, v: Any) -> int:
        return abs(v)

    def ball_size(self, r: int) -> int:
        return 2 * r + 1

    def is_bipartite(self) -> bool:
        return True

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, int):
            raise ValueError(f"bad path vertex {v!r}")

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        return _step_pm1(v, raw)

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return np.abs(v)

    def code_span(self, reach: int) -> int:
        return 2 * reach + 1

    def vertex_codes(self, v: np.ndarray, reach: int) -> np.ndarray:
        return v + reach


class _Cycle(Topology):
    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.n = spec.n
        self.origin = 0
        self.n_vertices = spec.n

    def degree(self, v: Any) -> int:
        return 2

    def neighbor(self, v: Any, i: int) -> Any:
        return (v - 1) % self.n if i == 0 else (v + 1) % self.n

    def distance_to_origin(self, v: Any) -> int:
        return min(v, self.n - v)

    def ball_size(self, r: int) -> int:
        return min(2 * r + 1, self.n)

    def is_bipartite(self) -> bool:
        return self.n % 2 == 0

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"bad cycle vertex {v!r}")

    @property
    def max_distance(self) -> int:
        return self.n // 2

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        return _step_pm1(v, raw) % self.n

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(v, self.n - v)


class _Tree(Topology):
    """Rooted k-regular tree: root has k children, internal vertices
    k-1 children plus a parent, so every non-leaf vertex has degree k.
    Addresses are child-index tuples from the root.
    """

    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.k = spec.k
        # None is treated as infinite here; the harness substitutes the
        # default truncation rule before building when unset.
        self.leaf_depth = spec.leaf_depth or 0
        self.origin = ()
        self.n_vertices = None if self.leaf_depth == 0 else self._full_ball(self.leaf_depth)
        self._above = np.zeros(1, dtype=np.int64)  # vertices above each level, per vertex_codes

    def _full_ball(self, r: int) -> int:
        # 1 + k * sum_{i=0}^{r-1} (k-1)^i
        k = self.k
        if k == 2:
            return 1 + 2 * r
        return 1 + k * ((k - 1) ** r - 1) // (k - 2)

    def degree(self, v: Any) -> int:
        if self.leaf_depth and len(v) == self.leaf_depth:
            return 1
        return self.k

    def neighbor(self, v: Any, i: int) -> Any:
        if not v:
            return (i,)
        if self.leaf_depth and len(v) == self.leaf_depth:
            return v[:-1]
        return v[:-1] if i == 0 else v + (i - 1,)

    def distance_to_origin(self, v: Any) -> int:
        return len(v)

    def ball_size(self, r: int) -> int:
        if self.leaf_depth:
            r = min(r, self.leaf_depth)
        return self._full_ball(r)

    def is_bipartite(self) -> bool:
        return True

    def is_truncated_leaf(self, v: Any) -> bool:
        return bool(self.leaf_depth) and len(v) == self.leaf_depth

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, tuple):
            raise ValueError(f"bad tree vertex {v!r}")
        if self.leaf_depth and len(v) > self.leaf_depth:
            raise ValueError(f"tree vertex {v!r} below truncation depth")
        for pos, c in enumerate(v):
            cap = self.k if pos == 0 else self.k - 1
            if not isinstance(c, int) or not 0 <= c < cap:
                raise ValueError(f"bad tree vertex {v!r}")

    @property
    def max_distance(self) -> Optional[int]:
        return self.leaf_depth or None

    @cached_property
    def _index_depth(self) -> int:
        """Deepest level whose in-level indices all fit an int64."""
        if self.k == 2:
            return INT64_MAX  # two vertices per level
        depth, width = 0, 1
        while width * (self.k if depth == 0 else self.k - 1) <= INT64_MAX + 1:
            width *= self.k if depth == 0 else self.k - 1
            depth += 1
        return depth

    def _check_depth(self, depth: int) -> None:
        if depth > self._index_depth:
            raise ValueError(f"tree(k={self.k}) level {depth} has indices beyond int64")

    def to_array(self, vertices: Sequence[Any]) -> np.ndarray:
        out = np.zeros((2, len(vertices)), dtype=np.int64)
        for j, v in enumerate(vertices):
            self._check_depth(len(v))
            x = v[0] if v else 0
            for c in v[1:]:
                x = x * (self.k - 1) + c
            out[:, j] = len(v), x
        return out

    def from_array(self, v: np.ndarray) -> list[Any]:
        out = []
        for depth, x in zip(v[0].tolist(), v[1].tolist()):
            digits = [0] * depth
            for i in range(depth - 1, 0, -1):
                x, digits[i] = divmod(x, self.k - 1)
            if depth:
                digits[0] = x
            out.append(tuple(digits))
        return out

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        depth, x = v  # rows of v, which take the destinations
        i = _remainder(raw, self.k)
        inner = depth > 0
        up = i == 0
        up &= inner
        if self.leaf_depth:
            up |= depth == self.leaf_depth
        # Checked before anything is written; only a vertex on the deepest
        # int64 level or below can move past it.
        if depth.size and int(depth.max()) >= self._index_depth:
            self._check_depth(int((depth + 1 - 2 * up).max()))
        parent = x // (self.k - 1)
        parent *= depth != 1  # the root, from depth 1
        # Child i - 1 of a non-root vertex, child i of the root. An upward
        # mover's child index is discarded, so its wrapping does no harm.
        x *= self.k - 1
        x += i
        x -= inner
        np.putmask(x, up, parent)
        depth += 1
        depth -= up
        depth -= up
        return v

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return v[0]

    def code_span(self, reach: int) -> int:
        return self._full_ball(reach)

    def vertex_codes(self, v: np.ndarray, reach: int) -> np.ndarray:
        # Breadth-first numbering: a vertex's code is its index plus the
        # number of vertices above its level, tabled once per reach.
        above = self._above  # another thread may publish a shorter table meanwhile
        if above.size <= reach:
            above = np.array([0] + [self._full_ball(d) for d in range(reach)], dtype=np.int64)
            self._above = above
        codes = above.take(v[0])
        codes += v[1]
        return codes


class _Grid(Topology):
    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.dim = spec.dim
        self.origin = (0,) * spec.dim
        self.n_vertices = None

    def degree(self, v: Any) -> int:
        return 2 * self.dim

    def neighbor(self, v: Any, i: int) -> Any:
        axis, sign = divmod(i, 2)
        delta = 1 if sign else -1
        return v[:axis] + (v[axis] + delta,) + v[axis + 1 :]

    def distance_to_origin(self, v: Any) -> int:
        return sum(abs(c) for c in v)

    def ball_size(self, r: int) -> int:
        d = self.dim
        return sum((2**i) * math.comb(d, i) * math.comb(r, i) for i in range(0, min(d, r) + 1))

    def is_bipartite(self) -> bool:
        return True

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, tuple) or len(v) != self.dim:
            raise ValueError(f"bad grid vertex {v!r}")
        if not all(isinstance(c, int) for c in v):
            raise ValueError(f"bad grid vertex {v!r}")

    def to_array(self, vertices: Sequence[Any]) -> np.ndarray:
        return np.array(vertices, dtype=np.int64).reshape(-1, self.dim).T

    def from_array(self, v: np.ndarray) -> list[Any]:
        return list(map(tuple, v.T.tolist()))

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        i = _remainder(raw, 2 * self.dim)
        # Neighbour i steps along axis i // 2, down for even i, up for odd.
        v[i >> 1, np.arange(i.size)] += 2 * (i & 1) - 1
        return v

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return np.abs(v).sum(axis=0)

    def code_span(self, reach: int) -> int:
        return (2 * reach + 1) ** self.dim

    def vertex_codes(self, v: np.ndarray, reach: int) -> np.ndarray:
        # One base-(2 reach + 1) digit per axis, as the path packs its offsets.
        base = 2 * reach + 1
        codes = v[0] + reach
        for row in v[1:]:
            codes *= base
            codes += row
            codes += reach
        return codes


class _Hypercube(Topology):
    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.dim = spec.dim
        self.origin = 0
        self.n_vertices = 1 << spec.dim
        self.rows = -(-spec.dim // 63)

    def degree(self, v: Any) -> int:
        return self.dim

    def neighbor(self, v: Any, i: int) -> Any:
        return v ^ (1 << i)

    def distance_to_origin(self, v: Any) -> int:
        return v.bit_count()

    def ball_size(self, r: int) -> int:
        d = self.dim
        return sum(math.comb(d, i) for i in range(0, min(r, d) + 1))

    def is_bipartite(self) -> bool:
        return True

    def validate_address(self, v: Any) -> None:
        if not isinstance(v, int) or not 0 <= v < (1 << self.dim):
            raise ValueError(f"bad hypercube vertex {v!r}")

    @property
    def max_distance(self) -> int:
        return self.dim

    def to_array(self, vertices: Sequence[Any]) -> np.ndarray:
        return np.array(
            [[v >> 63 * r & INT64_MAX for v in vertices] for r in range(self.rows)],
            dtype=np.int64,
        )

    def from_array(self, v: np.ndarray) -> list[Any]:
        rows = v.tolist()
        out = rows.pop()
        for low in reversed(rows):
            out = [high << 63 | x for high, x in zip(out, low)]
        return out

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        i = _remainder(raw, self.dim)
        # Neighbour i flips bit i % 63 of row i // 63.
        v[i // 63, np.arange(i.size)] ^= np.left_shift(1, i % 63)
        return v

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return np.bitwise_count(v).sum(axis=0, dtype=np.int64)

    def vertex_codes(self, v: np.ndarray, reach: int) -> np.ndarray:
        return v[0]  # one row: the span 2^dim fits an int64


class _Cayley(Topology):
    """Cayley graph of Z_{m1} x ... x Z_{mw} under a symmetric
    generator multiset. Distance, ball and bipartiteness queries come
    from one BFS over the group per process (the graph must be
    connected). Vertex arrays hold mixed-radix ints, the first residue
    most significant.
    """

    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.moduli, self.gens = spec.moduli, spec.generators
        self.origin = (0,) * len(spec.moduli)
        self.n_vertices = math.prod(spec.moduli)
        self._columns = np.array(self.gens, dtype=np.int64).T  # one row per axis
        self._dist, self._ball, self._bipartite = _cayley_bfs(self.moduli, self.gens)
        self.max_distance = len(self._ball) - 1

    def degree(self, v: Any) -> int:
        return len(self.gens)

    def neighbor(self, v: Any, i: int) -> Any:
        g = self.gens[i]
        return tuple((a + b) % m for a, b, m in zip(v, g, self.moduli))

    def distance_to_origin(self, v: Any) -> int:
        return int(self._dist[np.ravel_multi_index(v, self.moduli)])

    def ball_size(self, r: int) -> int:
        return self._ball[min(r, self.max_distance)]

    def is_bipartite(self) -> bool:
        return self._bipartite

    def validate_address(self, v: Any) -> None:
        if (
            not isinstance(v, tuple)
            or len(v) != len(self.moduli)
            or not all(isinstance(c, int) and 0 <= c < m for c, m in zip(v, self.moduli))
        ):
            raise ValueError(f"bad cayley vertex {v!r}")

    def to_array(self, vertices: Sequence[Any]) -> np.ndarray:
        residues = np.array(vertices, dtype=np.int64).reshape(-1, len(self.moduli))
        return np.ravel_multi_index(residues.T, self.moduli).astype(np.int64)

    def from_array(self, v: np.ndarray) -> list[Any]:
        return list(zip(*(a.tolist() for a in np.unravel_index(v, self.moduli))))

    def neighbor_array(self, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
        i = _remainder(raw, len(self.gens))
        return _mixed_add(v, self._columns.take(i, axis=1), self.moduli)

    def distance_array(self, v: np.ndarray) -> np.ndarray:
        return self._dist.take(v)


@lru_cache(maxsize=8)
def _cayley_bfs(moduli: tuple[int, ...], gens: tuple[tuple[int, ...], ...]):
    """Breadth-first search from the origin: the distance of every
    vertex by its mixed-radix int, the ball size of every radius up to
    the farthest, and whether the graph is bipartite. Run once per group
    and process: every system of an experiment builds the same graph."""
    n = math.prod(moduli)
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    ball, bipartite = [1], True
    while True:
        reached = np.concatenate([_mixed_add(frontier, g, moduli) for g in gens])
        seen = dist.take(reached)
        # An edge inside a level closes an odd cycle.
        bipartite = bipartite and not (seen == len(ball) - 1).any()
        frontier = np.unique(reached[seen < 0])
        if not frontier.size:
            break
        dist[frontier] = len(ball)
        ball.append(ball[-1] + frontier.size)
    if ball[-1] != n:
        raise ValueError(
            "cayley: generators do not generate the whole group "
            f"(reached {ball[-1]} of {n} vertices)"
        )
    dist.flags.writeable = False
    return dist, tuple(ball), bipartite


def _mixed_add(x: np.ndarray, g, moduli: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix ints x plus the group element g, whose residues (one
    per modulus) may be ints or arrays like x."""
    out = np.zeros_like(x)
    stride = 1
    for m, c in zip(reversed(moduli), reversed(g)):
        r = x // stride % m
        r += c
        r %= m
        r *= stride
        out += r
        stride *= m
    return out


def _remainder(raw: np.ndarray, m: int) -> np.ndarray:
    """raw % m of uint64 draws `raw`, computed in place and viewed as
    int64: numpy divides by a scalar far faster than it takes a
    remainder."""
    m = np.uint64(m)
    raw -= raw // m * m
    return raw.view(np.int64)


def _step_pm1(v: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """v - 1 for an even draw, v + 1 for an odd one."""
    step = (raw & np.uint64(1)).view(np.int64)
    step *= 2
    step -= 1
    return step + v


_BUILDERS = {
    Family.COMPLETE: _Complete,
    Family.STAR: _Star,
    Family.PATH: _Path,
    Family.CYCLE: _Cycle,
    Family.TREE: _Tree,
    Family.GRID: _Grid,
    Family.HYPERCUBE: _Hypercube,
    Family.CAYLEY: _Cayley,
}


def build(spec: TopologySpec) -> Topology:
    return _BUILDERS[spec.family](spec)


def with_leaf_depth(spec: TopologySpec, particles: int) -> TopologySpec:
    """Resolve an unset tree leaf_depth to the default rule."""
    if spec.family is Family.TREE and spec.leaf_depth is None:
        if spec.k >= 3:
            return replace(spec, leaf_depth=default_leaf_depth(spec.k, particles))
        return replace(spec, leaf_depth=0)
    return spec
