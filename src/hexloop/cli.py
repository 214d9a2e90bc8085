"""Command-line interface wiring domains, engines, checks and chains.

Subcommands: ``enumerate`` (exact weighted sums), ``sample`` (one chain,
CSV of event estimates), ``verify`` (exhaustive check suites over the
frozen fixture sets, nonzero exit on any in-region failure), and ``scan``
(a grid of sampling jobs, CSV phase table).

Every run writes one JSON line with the fully resolved configuration to
stderr, so any output can be reproduced from its log line.  Malformed input
and unreadable files are reported as one JSON object on stderr with exit
code 2; any other exception is a bug and propagates.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from .checks import (
    check_bijection,
    check_catalan_bound,
    check_cbc,
    check_contour_identity,
    check_domain_markov_and_duality,
    check_domain_monotonicity,
    check_fkg_lattice,
    check_several_faces,
    check_symmetric_domain,
    check_triangle_lower_bound,
)
from .configs import Params, SpinSystem
from .errors import HexloopError, OutOfRange
from .exact import MAX_SWEEP_WIDTH, evaluate_table, sweep_table
from .fixtures import (
    defect_sets,
    load_default_grid,
    load_domains,
    load_monotone_pairs,
    load_symmetric_fixtures,
    resolve_x,
)
from .lattice import domain_from_hexagons, hexagon_ball, triangle_domain
from .observables import _integer, event_from_json
from .sampler import run_chain

#: the regions of the spin suites, each in a minus frame and sea
REGIONS = {"hex1": ((0, 0),), "wedge": ((0, 0), (1, 0), (0, 1)),
           "ball1": tuple(sorted(hexagon_ball(1)))}


@contextmanager
def _user_input(what: str):
    """Report a malformed value read from a flag or a user file as
    OutOfRange, the error class that ``main`` turns into exit code 2."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise OutOfRange(f"malformed {what}: {exc!r}") from exc


def _read_structured(text: str):
    """Parse a flag that is a file path or inline JSON."""
    if os.path.exists(text):
        with open(text) as fh, _user_input(f"JSON in {text}"):
            return json.load(fh)
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        with _user_input("inline JSON"):
            return json.loads(stripped)
    raise OutOfRange(f"not a file and not inline JSON: {text!r}")


def _domain_from_spec(text: str):
    """Resolve a --domain flag into a (name, Domain) pair.

    Accepts a JSON file or inline JSON with one of the keys ``hexagons``,
    ``ball``, ``triangle``, or ``fixture``, or the bare name of a fixture
    from the shipped domain corpus.
    """
    fixtures = {fixture.name: fixture for fixture in load_domains()}
    if text in fixtures:
        return text, fixtures[text].build()
    obj = _read_structured(text)
    if not isinstance(obj, dict):
        raise OutOfRange("a domain spec must be a JSON object")
    if "hexagons" in obj:
        with _user_input("domain spec"):
            cells = [(_integer(r, "a hexagon coordinate"),
                      _integer(s, "a hexagon coordinate"))
                     for r, s in obj["hexagons"]]
        return obj.get("name", "hexagons"), domain_from_hexagons(cells)
    if "ball" in obj:
        k = _integer(obj["ball"], "the ball radius")
        return f"ball{k}", domain_from_hexagons(hexagon_ball(k))
    if "triangle" in obj:
        side = _integer(obj["triangle"], "the triangle side")
        return f"triangle{side}", triangle_domain(side).domain
    if "fixture" in obj:
        name = obj["fixture"]
        if not isinstance(name, str) or name not in fixtures:
            raise OutOfRange(f"unknown fixture {name!r}")
        return name, fixtures[name].build()
    raise OutOfRange("domain spec needs hexagons, ball, triangle, or fixture")


def _defects_from_flag(text: str) -> tuple:
    if not text.strip():
        return ()
    with _user_input("defect list"):
        return tuple(tuple(_integer(i, "a defect coordinate")
                           for i in (r, s, c))
                     for r, s, c in json.loads(text))


def _log_config(command: str, resolved: dict) -> None:
    line = {"command": command, "resolved": resolved,
            "caps": {"max_sweep_width": MAX_SWEEP_WIDTH}}
    print(json.dumps(line, sort_keys=True), file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    name, domain = _domain_from_spec(args.domain)
    defects = _defects_from_flag(args.A)
    x = resolve_x(args.x, args.n)
    if args.h != 0.0 or args.hp != 0.0:
        raise OutOfRange("defect enumeration is loop-side; field terms "
                         "belong to sample")
    for i, v in enumerate(defects):
        if v in defects[:i]:
            raise OutOfRange(f"defect {list(v)} is given twice")
        if domain.degree(v) == 0:
            raise OutOfRange(f"defect {list(v)} is not a vertex of the domain")
    params = Params(args.n, x)
    # the sweep, which checks its own width cap, is the one engine
    resolved = {"domain": name, "A": [list(v) for v in defects],
                "n": args.n, "x": x, "h": args.h, "hp": args.hp,
                "engine": "sweep"}
    _log_config("enumerate", {**resolved, "out": args.out})
    t0 = time.perf_counter()
    ws = evaluate_table(sweep_table(domain.edges, defects), params)
    record = {**resolved, "log_Z": ws.log_magnitude,
              "elapsed": round(time.perf_counter() - t0, 6)}
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# sample and scan
# ---------------------------------------------------------------------------

def _checked_event(spec):
    """A user event spec, once it is known to parse."""
    with _user_input("event spec"):
        event_from_json(spec)
    return spec


def _event_list(text: str) -> list:
    obj = _read_structured(text)
    if isinstance(obj, dict):
        obj = [obj]
    return [_checked_event(spec) for spec in obj]


def _event_name(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _estimates_csv(header: list, rows) -> str:
    """CSV of estimates, each row its leading columns and then the estimate."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header + ["mean", "stderr", "n_samples", "tau_int"])
    for *lead, est in rows:
        writer.writerow([*lead, repr(est.mean), repr(est.stderr),
                         est.n_samples, repr(est.tau_int)])
    return out.getvalue()


def _cmd_sample(args) -> int:
    name, domain = _domain_from_spec(args.domain)
    tau = 1 if args.tau == "plus" else -1
    x = resolve_x(args.x, args.n)
    params = Params(args.n, x, args.h, args.hp)
    events = _event_list(args.events)
    _log_config("sample", {"domain": name, "tau": args.tau, "n": args.n,
                           "x": x, "h": args.h, "hp": args.hp,
                           "sweeps": args.sweeps, "burn": args.burn,
                           "seed": args.seed, "stream": args.stream,
                           "events": events, "out": args.out})
    estimates = run_chain(domain, tau, params, args.sweeps, args.burn,
                          seed=args.seed, events=events, stream=args.stream)
    rows = [(_event_name(spec), est) for spec, est in zip(events, estimates)]
    _emit(_estimates_csv(["event"], rows), args.out)
    return 0


def _scan_cell(payload: tuple):
    (hexagons, tau, n, x, h, hp, sweeps, burn, seed, stream, event) = payload
    return run_chain(hexagons, tau, Params(n, x, h, hp), sweeps, burn,
                     seed=seed, events=[event], stream=stream)[0]


def _cmd_scan(args) -> int:
    name, domain = _domain_from_spec(args.domain)
    hexagons = tuple(sorted(domain.interior_hexagons))
    tau = 1 if args.tau == "plus" else -1
    xs = [resolve_x(tok, args.n) for tok in args.xs.split(",") if tok]
    with _user_input("--hs"):
        hs = [float(tok) for tok in args.hs.split(",") if tok]
    if not xs or not hs:
        raise OutOfRange("--xs and --hs must each list at least one value")
    event = _checked_event(_read_structured(args.event))
    workers = args.workers
    if workers is None:
        with _user_input("HEXLOOP_WORKERS"):
            workers = int(os.environ.get("HEXLOOP_WORKERS", "1"))
    if workers < 1:
        raise OutOfRange(f"need at least one worker, got {workers}")
    cells = [(x, h) for x in xs for h in hs]
    _log_config("scan", {"domain": name, "tau": args.tau, "n": args.n,
                         "xs": xs, "hs": hs, "hp": args.hp,
                         "sweeps": args.sweeps, "burn": args.burn,
                         "seed": args.seed, "event": event,
                         "workers": workers, "out": args.out})
    payloads = [(hexagons, tau, args.n, x, h, args.hp, args.sweeps,
                 args.burn, args.seed, idx, event)
                for idx, (x, h) in enumerate(cells)]
    pool_size = min(workers, len(cells))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_scan_cell, payloads))
    else:
        results = [_scan_cell(p) for p in payloads]
    rows = [(repr(args.n), repr(x), repr(h), _event_name(event), est)
            for (x, h), est in zip(cells, results)]
    _emit(_estimates_csv(["n", "x", "h", "event"], rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _points(grid: dict, side: str) -> list:
    """(label, Params) of each point of the grid's ``spin_params``, which
    give n, x, h and hp, or of its ``loop_params``, which give n and x."""
    names = ("n", "x", "h", "hp") if side == "spin" else ("n", "x")
    with _user_input("parameter grid"):
        return [(",".join(f"{name}={spec[name]}" for name in names),
                 Params(spec["n"], resolve_x(spec["x"], spec["n"]),
                        *(spec[name] for name in names[2:])))
                for spec in grid[f"{side}_params"]]


def _once(built: dict, key, make):
    """``make(key)``, built once per ``verify`` run."""
    if key not in built:
        built[key] = make(key)
    return built[key]


def _suite_fkg(grid: dict, built: dict) -> list:
    return [(f"fkg/{r}/{label}", check_fkg_lattice(built[r], -1, params))
            for label, params in _points(grid, "spin")
            for r in ("wedge", "ball1")]


def _suite_cbc(grid: dict, built: dict) -> list:
    low = built["ball1"]
    high = low.negated
    events = {"origin_plus": lambda s: s[(0, 0)] == 1,
              "all_plus": lambda s: all(v == 1 for v in s.values())}
    out = []
    for label, params in _points(grid, "spin"):
        out.append((f"cbc/ball1/{label}",
                    check_cbc(low.free, low, high, params, events)))
        out.append((f"faces/ball1/{label}",
                    check_several_faces(low, -1, frozenset([(0, 0)]),
                                        frozenset([(1, 0)]), params)))
    return out


def _suite_markov(grid: dict, built: dict) -> list:
    return [(f"markov/ball1/{label}", check_domain_markov_and_duality(
                built["ball1"], [(0, 0), (1, 0)], -1, params))
            for label, params in _points(grid, "spin")]


def _suite_bijection(grid: dict, built: dict) -> list:
    return [(f"bijection/{r}/{label}", check_bijection(built[r], -1, params))
            for label, params in _points(grid, "loop") for r in REGIONS]


def _suite_catalan(grid: dict, built: dict) -> list:
    out = []
    for fixture in load_domains()[:12]:
        domain = _once(built, frozenset(fixture.hexagons),
                       domain_from_hexagons)
        picks = defect_sets(domain)
        out += [(f"catalan/{fixture.name}/A{size}.{j}/{label}",
                 check_catalan_bound(domain, pick, params))
                for label, params in _points(grid, "loop")
                for size in (0, 2, 4) for j, pick in enumerate(picks[size])]
    return out


def _suite_monotone(grid: dict, built: dict) -> list:
    out = []
    for pair in load_monotone_pairs():
        inner, outer = (_once(built, frozenset(cells), domain_from_hexagons)
                        for cells in (pair.inner, pair.outer))
        out += [(f"monotone/{pair.name}/{label}",
                 check_domain_monotonicity(inner, outer, pair.gamma, params))
                for label, params in _points(grid, "loop")]
    return out


def _suite_triangle(grid: dict, built: dict) -> list:
    with _user_input("parameter grid"):
        spec = grid["triangle"]
        points = [(side, n) for side in spec["sides"] for n in spec["ns"]]
    return [(f"triangle/side{side}/n={n}", check_triangle_lower_bound(
        _once(built, side, triangle_domain), n)) for side, n in points]


def _suite_contour(grid: dict, built: dict) -> list:
    with _user_input("parameter grid"):
        spec = grid["contour"]
        points = [(side, n, "auto", resolve_x("auto", n))
                  for side in spec["sides"] for n in spec["ns"]]
        points += [(off["side"], off["n"], off["x"], off["x"])
                   for off in spec.get("off_critical", ())]
    return [(f"contour/side{side}/n={n}/x={label}",
             check_contour_identity(_once(built, side, triangle_domain), n, x))
            for side, n, label, x in points]


def _suite_symmetric(grid: dict, built: dict) -> list:
    out = []
    for fixture in load_symmetric_fixtures():
        arcs = (fixture.arc_a, fixture.arc_b)
        system = SpinSystem(fixture.region, {
            h: 1 for h in fixture.arc_a + fixture.arc_b}, sea=-1)
        out += [(f"symmetric/{fixture.name}/{label}",
                 check_symmetric_domain(system, arcs, params.n, params.x))
                for label, params in _points(grid, "loop")]
    return out


_SUITE_RUNNERS = {
    "fkg": _suite_fkg,
    "cbc": _suite_cbc,
    "markov": _suite_markov,
    "bijection": _suite_bijection,
    "catalan": _suite_catalan,
    "monotone": _suite_monotone,
    "triangle": _suite_triangle,
    "contour": _suite_contour,
    "symmetric": _suite_symmetric,
}
SUITES = (*_SUITE_RUNNERS, "all")


def _cmd_verify(args) -> int:
    grid = (load_default_grid() if args.params == "default"
            else _read_structured(args.params))
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    _log_config("verify", {"suite": args.suite, "params": args.params,
                           "out": args.out})
    # built once for this run only: each region's spin system, each
    # triangular domain by its side and each domain by its hexagon set
    built = {r: SpinSystem(cells, -1, sea=-1) for r, cells in REGIONS.items()}
    labeled = []
    for suite in names:
        reports = _SUITE_RUNNERS[suite](grid, built)
        if not reports:
            raise OutOfRange(f"the grid gives {suite} nothing to check")
        labeled.extend(reports)
    failed = [label for label, rep in labeled if rep.failed_in_region]
    body = {
        "suite": args.suite,
        "n_reports": len(labeled),
        "n_failed_in_region": len(failed),
        "failed": failed,
        "reports": [{"label": label, **rep.to_json()}
                    for label, rep in labeled],
    }
    _emit(json.dumps(body, sort_keys=True, indent=1) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexloop",
        description="loop model tools: exact sums, chains, checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_params(p):
        p.add_argument("--n", type=float, required=True)
        p.add_argument("--x", default="auto",
                       help="edge weight, or 'auto' for the critical point")
        p.add_argument("--h", type=float, default=0.0)
        p.add_argument("--hp", type=float, default=0.0)

    p = sub.add_parser("enumerate", help="exact weighted configuration sum")
    p.add_argument("--domain", required=True)
    p.add_argument("--A", default="", help="JSON list of defect vertices")
    common_params(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="run one chain, write event estimates")
    p.add_argument("--domain", required=True)
    p.add_argument("--tau", choices=("plus", "minus"), default="minus")
    common_params(p)
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--burn", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--events", required=True,
                   help="JSON list of event specs, or a file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run exhaustive check suites")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--params", default="default",
                   help="grid JSON file, or 'default' for the shipped grid")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="grid of sampling jobs, CSV phase table")
    p.add_argument("--domain", required=True)
    p.add_argument("--tau", choices=("plus", "minus"), default="minus")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--xs", required=True,
                   help="comma list of edge weights; 'auto' allowed")
    p.add_argument("--hs", default="0.0", help="comma list of field values")
    p.add_argument("--hp", type=float, default=0.0)
    p.add_argument("--event", required=True, help="one event spec JSON")
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--burn", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HexloopError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
