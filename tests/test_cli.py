"""Tests for the command line front end, run in process."""

import json
import pathlib

import pytest

from hexloop import cli
from hexloop.configs import SpinSystem, loops_to_json, spins_to_json
from hexloop.exact import MAX_SWEEP_WIDTH
from hexloop.fixtures import defect_sets, load_default_grid, load_domains
from hexloop.lattice import hexagon_ball, hexagon_edges

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    """Exit code, stdout and stderr of ``hexloop <argv>``."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_engines_agree_on_a_fixture(capsys):
    name = load_domains()[4].name
    records = {}
    for engine in ("sweep", "brute"):
        code, out, _ = run(capsys, "enumerate", "--domain", name, "--n", "1.5",
                           "--x", "0.6", "--A", "[]", "--engine", engine)
        assert code == 0
        records[engine] = json.loads(out)
    assert records["sweep"]["engine"] == "sweep"
    assert records["brute"]["engine"] == "brute"
    assert records["sweep"]["log_Z"] == pytest.approx(
        records["brute"]["log_Z"], rel=1e-12)


def test_enumerate_auto_names_the_width_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--domain", '{"ball": 8}',
                       "--n", "1.5")
    assert code == 2
    resolved, failure = map(json.loads, err.splitlines())
    assert resolved["resolved"]["engine"] == "sweep"
    assert failure["error"] == "WidthExceeded"
    assert f"cap of {MAX_SWEEP_WIDTH}" in failure["message"]


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


def test_verify_catalan_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "catalan")
    assert code == 0
    body = json.loads(out)
    picks = sum(len(p) for f in load_domains()[:12]
                for p in defect_sets(f.build()).values())
    assert body["n_reports"] == picks * len(load_default_grid()["loop_params"])
    assert body["n_failed_in_region"] == 0
    assert all("engine" not in r["details"] for r in body["reports"])


def test_render_matches_golden_files(capsys, tmp_path):
    two_cell = (frozenset(hexagon_edges((-1, 0)))
                ^ frozenset(hexagon_edges((-1, 1))))
    loops = (two_cell | frozenset(hexagon_edges((1, 0)))
             | frozenset(hexagon_edges((2, -2))))
    loops_file = tmp_path / "loops.json"
    loops_file.write_text(json.dumps({
        "edges": loops_to_json(loops),
        "hexagons": sorted(hexagon_ball(2))}))
    code, out, _ = run(capsys, "render", "--in", str(loops_file), "--mode",
                       "loops", "--top", "5")
    assert code == 0
    assert out == (GOLDEN / "loops_sample.svg").read_text()

    system = SpinSystem(hexagon_ball(1), -1)
    spins = {h: (1 if (h[0] + h[1]) % 2 == 0 else -1) for h in system.free}
    spins_file = tmp_path / "spins.json"
    spins_file.write_text(json.dumps(spins_to_json(system, spins)))
    code, out, _ = run(capsys, "render", "--in", str(spins_file), "--mode",
                       "spins", "--overlay")
    assert code == 0
    assert out == (GOLDEN / "spins_sample.svg").read_text()


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
    ["render", "--in", '{"fixed": []}', "--mode", "spins"],
    ["sample", "--domain", '{"ball": 1}', "--n", "1.5", "--sweeps", "5",
     "--burn", "-3", "--events", '{"type": "two_point", "v": [1, 0]}'],
    ["sample", "--domain", '{"ball": 5}', "--n", "1.5", "--sweeps", "5",
     "--events", '[{"type": "plus_circuit", "k": 2.7}]'],
    ["sample", "--domain", '{"ball": 2}', "--n", "1.5", "--sweeps", "5",
     "--events", '{"type": "two_point", "v": [1.9, 0]}'],
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
