"""Versioned instance sets: domains, nested pairs, symmetric regions, grids.

The JSON files under ``data/`` are frozen inputs for the verification
suites and the acceptance battery.  Loaders return plain tuples of small
records; domain construction is left to the caller so that fixtures stay
cheap to enumerate.
"""

import json
from dataclasses import dataclass
from importlib.resources import files

from .errors import OutOfRange
from .exact import x_critical
from .lattice import Domain, domain_from_hexagons


def _load(name: str) -> dict:
    return json.loads(files("hexloop").joinpath(f"data/{name}").read_text())


def _cells(rows) -> tuple:
    """Hexagons or vertices read as lists from JSON, as tuples."""
    return tuple(tuple(c) for c in rows)


def resolve_x(value, n: float) -> float:
    """Turn a grid or flag value for the edge weight into a number.

    The string ``"auto"`` picks the critical point for the given loop
    weight; anything else must already be a number.
    """
    if value == "auto":
        return x_critical(n)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise OutOfRange(f"edge weight must be a number or 'auto', "
                         f"got {value!r}") from None


@dataclass(frozen=True)
class DomainFixture:
    name: str
    hexagons: tuple

    def build(self) -> Domain:
        return domain_from_hexagons(self.hexagons)


def load_domains() -> tuple[DomainFixture, ...]:
    return tuple(DomainFixture(d["name"], _cells(d["hexagons"]))
                 for d in _load("domains.json")["domains"])


def defect_sets(domain: Domain) -> dict[int, tuple[tuple, ...]]:
    """Deterministic boundary defect picks of sizes 0, 2, and 4."""
    boundary = tuple(domain.boundary)
    m = len(boundary)
    picks = {0: ((),), 2: ((boundary[0], boundary[-1]),
                           (boundary[0], boundary[m // 2]))}
    quad = (boundary[0], boundary[m // 4], boundary[m // 2],
            boundary[(3 * m) // 4])
    picks[4] = (quad,) if len(set(quad)) == 4 else ()
    return picks


@dataclass(frozen=True)
class MonotonePair:
    name: str
    inner: tuple
    outer: tuple
    gamma: tuple

    def build(self) -> tuple[Domain, Domain]:
        return (domain_from_hexagons(self.inner),
                domain_from_hexagons(self.outer))


def load_monotone_pairs() -> tuple[MonotonePair, ...]:
    return tuple(MonotonePair(p["name"], *(_cells(p[key]) for key in
                                           ("inner", "outer", "gamma")))
                 for p in _load("monotone_pairs.json")["pairs"])


@dataclass(frozen=True)
class SymmetricFixture:
    name: str
    region: tuple
    arc_a: tuple
    arc_b: tuple


def load_symmetric_fixtures() -> tuple[SymmetricFixture, ...]:
    return tuple(SymmetricFixture(f["name"], *(_cells(f[key]) for key in
                                               ("region", "arc_a", "arc_b")))
                 for f in _load("symmetric.json")["fixtures"])


def load_default_grid() -> dict:
    return _load("default_grid.json")
