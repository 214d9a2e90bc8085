"""Tests for the command line front end, run in process."""

import builtins
import json
import pathlib

import pytest

from hexloop import checks, cli, configs, exact, fixtures, lattice
from hexloop.exact import MAX_SWEEP_WIDTH, evaluate_table
from hexloop.fixtures import defect_sets, load_default_grid, load_domains
from oracles import brute_force_table, compensated_sum, product_truth

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    """Exit code, stdout and stderr of ``hexloop <argv>``."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_engines_agree_on_a_fixture(capsys):
    # the command's sweep against the brute-force oracle
    fixture = load_domains()[4]
    code, out, _ = run(capsys, "enumerate", "--domain", fixture.name,
                       "--n", "1.5", "--x", "0.6", "--A", "[]")
    assert code == 0
    record = json.loads(out)
    assert record["engine"] == "sweep"
    brute = evaluate_table(brute_force_table(fixture.build().edges),
                           configs.Params(1.5, 0.6))
    assert record["log_Z"] == pytest.approx(brute.log_magnitude, rel=1e-12)


def test_enumerate_matches_golden_log_z(capsys):
    # written before each table kept its count logs: the 10x4 rectangle
    # with the defect sets of the benchmark's long tables, n = 1, 1.5 and 2
    # at x_c; then, before a plan step took both ends of a vertical edge,
    # ball r=3 with the defect sets of its wide tables at the same points;
    # the record less its elapsed time must be the same text
    for case in json.loads((GOLDEN / "enumerate_log_z.json").read_text()):
        code, out, _ = run(capsys, *case["argv"])
        assert code == 0
        record = json.loads(out)
        del record["elapsed"]
        assert (json.dumps(record, sort_keys=True)
                == json.dumps(case["record"], sort_keys=True))


def test_enumerate_auto_names_the_width_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--domain", '{"ball": 8}',
                       "--n", "1.5")
    assert code == 2
    resolved, failure = map(json.loads, err.splitlines())
    assert resolved["resolved"]["engine"] == "sweep"
    assert failure["error"] == "WidthExceeded"
    assert f"cap of {MAX_SWEEP_WIDTH}" in failure["message"]


def test_enumerate_names_the_width_cap_of_a_long_strip(capsys, tmp_path):
    # a 12-wide strip of 1,030 rows: its estimate counts frontiers past
    # the float range, and its narrowest direction is 18 wide
    path = tmp_path / "strip.json"
    path.write_text(json.dumps({"hexagons": [
        [r, s] for s in range(1030)
        for r in range(-(s // 2), -(s // 2) + 12)]}))
    code, _, err = run(capsys, "enumerate", "--domain", str(path),
                       "--n", "1.5", "--x", "auto")
    assert code == 2
    failure = json.loads(err.splitlines()[-1])
    assert failure["error"] == "WidthExceeded"
    assert failure["message"] == ("sweep frontier width 18 exceeds the cap "
                                  f"of {MAX_SWEEP_WIDTH}")


def test_enumerate_sweeps_a_turned_box_past_the_width_cap(capsys):
    # the 7x9 box turned by 60 degrees, (r, s) -> (-s, r + s): 17 wide in
    # the default direction, past the cap, and 9 in its narrowest, which
    # the sweep takes, to the log Z of the unturned box
    box = lattice.rectangle_hexagons(7, 9)
    turned = sorted([-s, r + s] for r, s in box)
    records = []
    for cells in (turned, sorted(map(list, box))):
        code, out, _ = run(capsys, "enumerate", "--domain",
                           json.dumps({"hexagons": cells}), "--n", "1.5")
        assert code == 0
        records.append(json.loads(out))
    assert records[0]["log_Z"] == records[1]["log_Z"]


def test_seeded_sample_repeats(capsys, tmp_path):
    argv = ["sample", "--domain", '{"ball": 2}', "--tau", "plus", "--n",
            "1.5", "--sweeps", "40", "--seed", "7", "--events",
            '[{"type": "plus_circuit", "k": 1}, {"type": "two_point", '
            '"v": [1, 0]}]']
    texts = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        code, _, err = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert json.loads(err)["command"] == "sample"
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[0] == "event,mean,stderr,n_samples,tau_int"
    assert len(lines) == 3


def test_sample_of_every_named_kind_matches_golden(capsys):
    # a seeded chain on ball r = 4 with all five named event kinds; the
    # golden holds the command's stdout byte for byte
    golden = json.loads((GOLDEN / "sample_all_kinds.json").read_text())
    code, out, _ = run(capsys, *golden["argv"])
    assert code == 0
    assert out == golden["csv"]


def test_verify_catalan_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "catalan")
    assert code == 0
    body = json.loads(out)
    picks = sum(len(p) for f in load_domains()[:12]
                for p in defect_sets(f.build()).values())
    assert body["n_reports"] == picks * len(load_default_grid()["loop_params"])
    assert body["n_failed_in_region"] == 0
    assert all("engine" not in r["details"] for r in body["reports"])


def test_scan_with_one_worker(capsys):
    code, out, _ = run(capsys, "scan", "--domain", '{"ball": 3}', "--n", "1.5",
                       "--xs", "auto,0.5", "--hs", "0.0,0.1", "--event",
                       '{"type": "plus_circuit", "k": 1}', "--sweeps", "20",
                       "--workers", "1")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,x,h,event,mean,stderr,n_samples,tau_int"
    assert len(rows) == 1 + 4
    assert all(row.split(",")[0] == "1.5" for row in rows[1:])


def test_scan_pool_is_capped_at_the_cell_count(capsys, monkeypatch):
    # a stand-in pool that spawns nothing and records its size
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ["scan", "--domain", '{"ball": 3}', "--n", "1.5", "--xs",
            "auto,0.5", "--event", '{"type": "plus_circuit", "k": 1}',
            "--sweeps", "5"]
    code, out, _ = run(capsys, *argv, "--workers", "64")
    assert code == 0 and sizes == [2] and len(out.splitlines()) == 1 + 2
    monkeypatch.setenv("HEXLOOP_WORKERS", "0")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and sizes == [2]
    assert json.loads(err.splitlines()[-1])["error"] == "OutOfRange"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "catalan", "--params", '{"loop_params": [{'],
    ["verify", "--suite", "triangle", "--params",
     '{"triangle": {"sides": [4]}}'],
    ["enumerate", "--domain", '{"ball": "two"}', "--n", "1.5"],
    ["enumerate", "--domain", "poly1_01", "--n", "1.5", "--A", "[[0, 0]"],
    ["enumerate", "--domain", "poly1_01", "--n", "1.5", "--x", "wide"],
    ["scan", "--domain", '{"ball": 1}', "--n", "1.5", "--xs", "auto",
     "--hs", "zero", "--event", '{"type": "plus_circuit", "k": 1}',
     "--sweeps", "5"],
    ["sample", "--domain", '{"ball": 1}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "plus_circuit", "k": "one"}'],
    # a key that the event kind does not read
    ["sample", "--domain", '{"ball": 2}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "plus_circuit", "k": 1, "bogus": 3}'],
    ["sample", "--domain", '{"ball": 1}', "--n", "1.5", "--sweeps", "5",
     "--burn", "-3", "--events", '{"type": "two_point", "v": [1, 0]}'],
    ["sample", "--domain", '{"ball": 5}', "--n", "1.5", "--sweeps", "5",
     "--events", '[{"type": "plus_circuit", "k": 2.7}]'],
    ["sample", "--domain", '{"ball": 2}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "two_point", "v": [1.9, 0]}'],
    ["sample", "--domain", '{"ball": 3}', "--n", "1.5", "--sweeps", "5",
     "--seed", "-1", "--events", '{"type": "plus_circuit", "k": 1}'],
    # an infinite or fractional size or coordinate is not an integer
    ["enumerate", "--domain", '{"ball": 1e999}', "--n", "1.5"],
    ["enumerate", "--domain", '{"triangle": 1e999}', "--n", "1.5"],
    ["enumerate", "--domain", '{"hexagons": [[1e999, 0]]}', "--n", "1.5"],
    ["enumerate", "--domain", "poly1_01", "--n", "1.5", "--A",
     "[[1e999, 0, 0]]"],
    ["enumerate", "--domain", '{"ball": 2.5}', "--n", "1.5"],
    ["sample", "--domain", '{"ball": 3}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "crossing", "k": 1, "rho": 1e999}'],
    # a string orientation or a boolean aspect ratio or padding
    ["sample", "--domain", '{"ball": 3}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "trapeze", "k": 2, "vertical": "false"}'],
    ["sample", "--domain", '{"ball": 3}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "crossing", "k": 1, "rho": true}'],
    ["sample", "--domain", '{"ball": 3}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "crossing", "k": 1, "eps": false}'],
    ["scan", "--domain", '{"ball": 3}', "--n", "1.5", "--xs", "auto",
     "--event", '{"type": "plus_circuit", "k": 1}', "--sweeps", "5",
     "--workers", "-2"],
    # an empty grid of edge weights or of fields
    ["scan", "--domain", '{"ball": 3}', "--n", "1.5", "--xs", ",",
     "--event", '{"type": "plus_circuit", "k": 1}', "--sweeps", "5"],
    ["scan", "--domain", '{"ball": 3}', "--n", "1.5", "--xs", "auto",
     "--hs", ",", "--event", '{"type": "plus_circuit", "k": 1}',
     "--sweeps", "5"],
    # a repeated defect, and defects off the domain
    ["enumerate", "--domain", '{"ball": 1}', "--n", "1.5", "--A",
     "[[0, 0, 0], [0, 0, 0]]"],
    ["enumerate", "--domain", '{"ball": 1}', "--n", "1.5", "--A",
     "[[50, 0, 0], [51, 0, 0]]"],
    # a grid that gives a requested suite nothing to check
    ["verify", "--suite", "fkg", "--params", '{"spin_params": []}'],
    ["verify", "--suite", "catalan", "--params", '{"loop_params": []}'],
    ["verify", "--suite", "triangle", "--params",
     '{"triangle": {"sides": [], "ns": [1.5]}}'],
    ["verify", "--suite", "contour", "--params",
     '{"contour": {"sides": [2, 4], "ns": []}}'],
    ["sample", "--domain", '{"ball": 3}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "trapeze", "k": 2, "vertcal": false}'],
])
def test_malformed_input_exits_with_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "OutOfRange"


def test_internal_errors_propagate(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "check_catalan_bound", broken)
    with pytest.raises(KeyError):
        cli.main(["verify", "--suite", "catalan"])


@pytest.mark.parametrize("suite", ["fkg", "cbc", "markov", "bijection",
                                   "symmetric"])
def test_verify_spin_suites_match_golden(capsys, suite):
    # written by the per-assignment spin_counts loops that the Gray-code
    # enumerator replaced; every float must come out bit for bit the same
    golden = json.loads((GOLDEN / "verify_spin_suites.json").read_text())
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert out == golden[suite]


@pytest.mark.parametrize("suite", ["catalan", "monotone", "triangle",
                                   "contour"])
def test_verify_table_suites_match_golden(capsys, suite):
    # written before table evaluation became one float pass; every float
    # must come out bit for bit the same
    golden = json.loads((GOLDEN / "verify_table_suites.json").read_text())
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert out == golden[suite]


def test_pinned_suites_keep_their_digits_under_compensated_sum(
        capsys, monkeypatch):
    # from Python 3.12 on the builtin sum compensates float rounding; every
    # printed sum is added in order by exact.sum_in_order, so under the
    # 3.12 rule every pinned suite still prints its golden bytes
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert exact.sum_in_order([1e16, 1.0, -1e16]) == 0.0
    goldens = {}
    for name in ("verify_spin_suites.json", "verify_table_suites.json"):
        goldens.update(json.loads((GOLDEN / name).read_text()))
    assert len(goldens) == 9
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for suite, want in goldens.items():
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert out == want, f"verify --suite {suite} moved a digit"


def test_every_truth_of_a_verify_pass_equals_the_product_order_oracle(
        capsys, monkeypatch):
    # each truth that the Gray-code walk writes, spin, wall or framed-array
    # event alike, against the same event read assignment by assignment
    seen = {}
    truth = exact._truth

    def spy(system, event, side):
        got = truth(system, event, side)
        seen[id(system), event, side] = system, got
        return got

    for module in (exact, checks):
        monkeypatch.setattr(module, "_truth", spy)
    assert run(capsys, "verify", "--suite", "all")[0] == 0
    sides = {side for _, _, side in seen}
    assert sides == {"spins", "framed"}
    for (_, event, side), (system, got) in seen.items():
        assert got == product_truth(system, event, side)


def test_verify_walks_each_system_once_per_run(capsys, monkeypatch):
    # what a run builds lives for that run only: a second run in the same
    # process walks the same 11 spin systems again, for the same output
    walks = []
    walk = configs._gray_counts

    def counted(system):
        walks.append(system)
        return walk(system)

    monkeypatch.setattr(configs, "_gray_counts", counted)
    outs = []
    for _ in range(2):
        walks.clear()
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0 and len(walks) == 11
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_builds_each_domain_once_per_run(capsys, monkeypatch):
    # the catalan and monotone suites read their domains through the run's
    # built dict, so their 36 regions build the 20 distinct hexagon sets
    # once each
    calls = []
    build = lattice.domain_from_hexagons

    def counted(hexagons):
        calls.append(frozenset(hexagons))
        return build(hexagons)

    for module in (lattice, fixtures, cli):
        monkeypatch.setattr(module, "domain_from_hexagons", counted)
    assert run(capsys, "verify", "--suite", "all")[0] == 0
    assert len(calls) == len(set(calls)) == 20
