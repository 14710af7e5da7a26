import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the CLI subprocesses import steernet from this checkout, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}

PHI_PLUS_RAW = json.dumps(
    {
        "family": "raw",
        "matrix": [
            [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        ],
    }
)


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "steernet", *args],
        capture_output=True,
        text=True,
        env=ENV,
        **kw,
    )


def test_check_f3_gamma_reference_point():
    r = run_cli("check", "f3", '{"family":"gamma1","p":0.6,"alpha":0.6}')
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["value"] == pytest.approx(0.317983, abs=1e-5)
    assert rep["verdict"] == "satisfied"
    assert rep["interpretation"] == "not-steerable-by-this-criterion"


def test_check_f3_pure_werner():
    r = run_cli("check", "f3", '{"family":"werner","p":1.0}')
    rep = json.loads(r.stdout)
    assert rep["value"] == pytest.approx(3.0, abs=1e-12)
    assert rep["verdict"] == "violated"


def test_check_unsteerable_omega():
    r = run_cli("check", "unsteerable", '{"family":"omega","beta":0.1,"s":0.7}')
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["interpretation"] == "certified-unsteerable"
    assert rep["witness"]["canonical_a"][2] == pytest.approx(0.944260, abs=1e-5)


def test_check_bell_local_nests_both_reports():
    r = run_cli("check", "bell-local", '{"family":"werner","p":1.0}', "--restarts", "2")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["interpretation"] == "bell-nonlocal"
    for name in ("chsh", "i3322"):
        inner = rep["witness"][name]
        assert inner["criterion"] == name
        assert inner["verdict"] == "violated"
        assert inner["interpretation"] == "bell-nonlocal"
    assert rep["value"] == max(rep["witness"]["chsh"]["value"], rep["witness"]["i3322"]["value"])


def test_check_cjwr_closed_route():
    r = run_cli("check", "cjwr", '{"family":"gamma1","p":0.214,"alpha":0.267}')
    rep = json.loads(r.stdout)
    assert rep["value"] == pytest.approx(0.80453583, abs=1e-7)
    assert rep["verdict"] == "satisfied"


def test_check_rejects_bad_json():
    r = run_cli("check", "f3", "{not json")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_check_rejects_bad_parameters():
    # out of range, a JSON bool and a quoted number are all input errors
    for p in ("2.0", "true", '"0.5"'):
        r = run_cli("check", "f3", '{"family":"gamma1","p":%s,"alpha":0.1}' % p)
        assert r.returncode == 2, p
    # a JSON integer is a number
    assert run_cli("check", "f3", '{"family":"gamma1","p":1,"alpha":0.1}').returncode == 0
    # a raw state takes no parameter besides its matrix
    raw = dict(json.loads(PHI_PLUS_RAW), p="junk")
    r = run_cli("check", "f3", json.dumps(raw))
    assert r.returncode == 2 and "unexpected parameter" in r.stderr
    # each raw entry is a list of exactly two JSON numbers
    for entry in ({"re": 0.5}, [0.5, 0.0, 99], [True, False]):
        raw = json.loads(PHI_PLUS_RAW)
        raw["matrix"][0][0] = entry
        r = run_cli("check", "f3", json.dumps(raw))
        assert r.returncode == 2 and "Traceback" not in r.stderr, entry
    # a JSON integer too large for a float, as a parameter and as a raw entry
    huge = str(10**400)
    r = run_cli("check", "f3", '{"family":"gamma1","p":%s,"alpha":0.1}' % huge)
    assert r.returncode == 2 and "Traceback" not in r.stderr
    raw = json.loads(PHI_PLUS_RAW)
    raw["matrix"][0][1] = [10**400, 0]
    r = run_cli("check", "f3", json.dumps(raw))
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_check_rejects_flags_its_criterion_does_not_read():
    state = '{"family":"werner","p":0.5}'
    triad = "1,0,0;0,1,0;0,0,1"
    for args in (
        ("f3", state, "--restarts", "0"),
        ("f3", state, "--seed", "3"),
        ("cjwr", state, "--restarts", "4"),
        ("f3", state, "--alice", triad, "--charlie", triad),
        ("chsh", state, "--alice", triad, "--charlie", triad),
        ("unsteerable", state, "--charlie", triad),
    ):
        r = run_cli("check", *args)
        assert r.returncode == 2, args
        assert "does not read" in r.stderr and r.stdout == "", args


_SCIPY_PROBE = """
import contextlib, io, sys
from steernet import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("scan", "linear", "--alpha", "0.1", "--p", "0:1:4")
run("scan", "star", "--alpha", "0.2", "--p1", "0.08", "--p2", "0.075", "--p3", "0:1:4")
run("check", "f3", '{"family":"gamma1","p":0.6,"alpha":0.6}')
run("check", "cjwr", '{"family":"gamma1","p":0.6,"alpha":0.6}')
run("scan", "genuine", "--beta1", "0.7", "--s1", "0:1:2", "--identical")
run("scan", "genuine", "--beta1", "0.3", "--s1", "0:1:2", "--beta2", "0.9", "--s2", "0:1:2")
print("scipy.optimize" in sys.modules)
run("check", "unsteerable", '{"family":"omega","beta":0.7,"s":0.5}', "--restarts", "2")
print("scipy.optimize" in sys.modules)
"""


def test_scipy_loaded_only_by_the_numeric_searches():
    # chain, star and genuine scans, f3 and cjwr checks run without scipy; the
    # Bowles search of `check unsteerable` loads it
    r = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]


def test_swap_two_phi_plus():
    r = run_cli("swap", PHI_PLUS_RAW, PHI_PLUS_RAW)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    probs = [o["probability"] for o in out["outcomes"]]
    assert probs == pytest.approx([0.25] * 4, abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert [o["label"] for o in out["outcomes"]] == ["00", "01", "10", "11"]


def test_swap_canonical_reference_pair():
    left = '{"family":"omega","beta":0.1,"s":0.7}'
    right = '{"family":"omega","beta":0.3,"s":0.59}'
    r = run_cli("swap", left, right, "--canonical")
    out = json.loads(r.stdout)
    first = out["outcomes"][0]
    assert first["u"][2] == pytest.approx(0.98107, abs=1e-5)
    wdiag = [first["W"][i][i] for i in range(3)]
    assert wdiag == pytest.approx([0.0729052, -0.0729052, 0.0128697], abs=1e-5)
    assert first["f3"] < 1.0


def test_swap_star_mode_reports_reduced_verdicts():
    g = '{"family":"gamma1","p":0.08,"alpha":0.2}'
    h = '{"family":"gamma1","p":0.075,"alpha":0.2}'
    k = '{"family":"gamma1","p":0.3,"alpha":0.2}'
    r = run_cli("swap", g, h, "--star", k)
    out = json.loads(r.stdout)
    assert out["mode"] == "star"
    assert len(out["outcomes"]) == 8
    first = out["outcomes"][0]
    assert "reduced" in first
    assert first["reduced"]["value"] > 1.0


def test_scan_linear_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("scan", "linear", "--alpha-fixed", "0.1", "--p", "0:1:20")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("p,s_00,act_00,b_00")


def test_scan_out_file_matches_stdout(tmp_path):
    for name, args in (
        ("linear.csv", ("linear", "--alpha-fixed", "0.1", "--p", "0:1:20")),
        ("star.json", ("star", "--alpha", "0.2", "--p1", "0.08", "--p2", "0.075",
                       "--p3", "0:1:10", "--format", "json")),
    ):
        shown = subprocess.run([sys.executable, "-m", "steernet", "scan", *args],
                               capture_output=True, env=ENV)
        path = tmp_path / name
        written = run_cli("scan", *args, "--out", str(path))
        assert shown.returncode == written.returncode == 0, name
        assert written.stdout == ""
        assert path.read_bytes() == shown.stdout, name


def test_scan_linear_json_stdout():
    r = run_cli("scan", "linear", "--alpha", "0.1", "--p", "0:1:4", "--format", "json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["cells"]) == 5
    assert out["grid"]["fixed"]["alpha"] == 0.1


def test_scan_star_requires_alpha():
    r = run_cli("scan", "star", "--p3", "0:1:4")
    assert r.returncode == 2


def test_scan_genuine_identical_conflict():
    r = run_cli("scan", "genuine", "--identical", "--beta1", "0.7", "--s1", "0:1:4", "--beta2", "0.5")
    assert r.returncode == 2


def test_scan_rejects_flags_its_kind_does_not_read():
    for args in (
        ("linear", "--alpha", "0:0.5:2", "--alpha-fixed", "0.1", "--p", "0:1:2"),
        ("linear", "--alpha", "0.1", "--p", "0:1:2", "--p3", "0.5"),
        ("linear", "--alpha", "0.1", "--p", "0:1:2", "--s1", "0.2"),
        ("linear", "--alpha", "0.1", "--p", "0:1:2", "--identical"),
        # no search runs without --audit-bell
        ("linear", "--alpha", "0.1", "--p", "0:1:2", "--restarts", "5"),
        ("linear", "--alpha", "0.1", "--p", "0:1:2", "--seed", "0"),
        ("star", "--alpha", "0.2", "--p1", "0.1", "--p2", "0.1", "--p3", "0:1:2", "--p", "0.4"),
        ("star", "--alpha", "0.2", "--p1", "0.1", "--p2", "0.1", "--p3", "0:1:2", "--audit-bell"),
        ("star", "--alpha", "0.2", "--p1", "0.1", "--p2", "0.1", "--p3", "0:1:2",
         "--seed", "3", "--restarts", "5"),
        ("genuine", "--beta1", "0.7", "--s1", "0:1:2", "--identical", "--s2", "0.5"),
        ("genuine", "--beta1", "0.7", "--s1", "0.5", "--beta2", "0.6", "--s2", "0:1:1",
         "--alpha-fixed", "0.1"),
        # the genuine gate is a closed form: no search runs
        ("genuine", "--beta1", "0.7", "--s1", "0:1:2", "--identical", "--restarts", "5"),
        ("genuine", "--beta1", "0.7", "--s1", "0.5", "--beta2", "0.6", "--s2", "0:1:1",
         "--seed", "3"),
    ):
        r = run_cli("scan", *args)
        assert r.returncode == 2, args
        assert "error" in r.stderr and r.stdout == "", args


def test_scan_rejects_non_finite_grid_values():
    for args in (
        ("linear", "--alpha-fixed", "inf", "--p", "0:1:4"),
        ("linear", "--alpha", "inf", "--p", "0:1:4"),
        ("linear", "--alpha", "0.1", "--p=-inf:1:4"),
        ("star", "--alpha", "1e400", "--p1", "0.1", "--p2", "0.1", "--p3", "0:1:4"),
    ):
        r = run_cli("scan", *args)
        assert r.returncode == 2, args
        assert "finite" in r.stderr and "Traceback" not in r.stderr, args


def test_scan_unwritable_path_io_error():
    r = run_cli("scan", "linear", "--alpha", "0.1", "--p", "0:1:4",
                "--out", "/nonexistent-dir/x.csv")
    assert r.returncode == 3


def test_reproduce_control_pair_passes():
    r = run_cli("reproduce", "control-pair")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "FAIL" not in r.stdout
    assert r.stdout.count("PASS") >= 10


def test_reproduce_unknown_target_rejected():
    r = run_cli("reproduce", "everything")
    assert r.returncode == 2
