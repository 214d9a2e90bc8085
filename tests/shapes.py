"""Spin-system shapes shared by the configuration and chain tests: a hole
oracle and a draw between simply connected and holed contexts."""

from hypothesis import assume
from hypothesis import strategies as st

from hexloop.configs import SpinSystem
from hexloop.lattice import hexagon_ball, tri_distance, tri_neighbors

BALL1 = frozenset(hexagon_ball(1))
RING12 = sorted(hexagon_ball(2) - hexagon_ball(1))
HOLE = (2, 0)


def with_hole(fixed: dict, sea: int) -> dict:
    """Frozen spins plus a ring of the sign opposite to the sea round the
    empty hexagon ``HOLE``, which the origin's ring neighbour (1, 0)
    touches; spins given in ``fixed`` take precedence.  The hole joins
    (1, 0) to the sea when the two have one sign."""
    return {**{g: -sea for g in tri_neighbors(HOLE)}, **fixed}


def holes(context) -> set:
    """Hexagons outside the context that it encloses: those from which no
    path outside the context reaches beyond the context's radius."""
    ctx = set(context)
    radius = max(tri_distance((0, 0), h) for h in ctx) + 1
    box = hexagon_ball(radius)
    todo = [h for h in box if tri_distance((0, 0), h) == radius]
    seen = set(todo)
    while todo:
        for g in tri_neighbors(todo.pop()):
            if g in box and g not in ctx and g not in seen:
                seen.add(g)
                todo.append(g)
    return set(box) - ctx - seen


@st.composite
def spin_systems(draw, ball, max_size=None):
    """A system on a random, possibly disconnected, subset of ``ball``, with
    random frozen spins and sea, whose context is either without holes or
    holed: the subset's hexagons beyond the unit ball, with ``RING12``
    completed by frozen spins around an empty centre."""
    shape = draw(st.lists(st.sampled_from(ball), min_size=1,
                          max_size=max_size, unique=True))
    holed = draw(st.booleans())
    if holed:
        shape = [h for h in shape if h not in BALL1]
        assume(shape)
    frozen = {g for h in shape for g in tri_neighbors(h)}
    if holed:
        frozen |= set(RING12)
    frozen = sorted(frozen - set(shape))
    signs = st.sampled_from((-1, 1))
    fixed = dict(zip(frozen, draw(st.lists(signs, min_size=len(frozen),
                                           max_size=len(frozen)))))
    system = SpinSystem(shape, fixed, sea=draw(signs))
    assume(bool(holes(system.context)) == holed)
    return system
