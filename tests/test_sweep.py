import json

import numpy as np
import pytest

from steernet import ArgumentError, GridSpec, OptConfig, scan_genuine, scan_linear, scan_star
from steernet.netswap import DEGENERATE_PROB
from steernet.sweep import csv_lines, dumps, format_float, result_to_dict
from steernet.criteria import DELTA


def test_grid_spec_validation():
    with pytest.raises(ArgumentError):
        GridSpec([("p", 1.0, 0.0, 10)])
    with pytest.raises(ArgumentError):
        GridSpec([("p", 0.0, 1.0, 1)])
    with pytest.raises(ArgumentError):
        GridSpec([("p", 0.0, 1.0, 5)], {"p": 0.3})


def test_grid_points_count_convention():
    g = GridSpec([("p", 0.0, 1.0, 501)])
    pts = g.points("p")
    assert len(pts) == 501
    assert pts[1] - pts[0] == pytest.approx(0.002, abs=1e-15)


def test_grid_cells_row_major():
    g = GridSpec([("a", 0.0, 1.0, 2), ("b", 0.0, 1.0, 3)])
    got = [(c["a"], c["b"]) for c in g.cells()]
    assert got == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]


def test_scan_linear_cell_count_and_flags():
    g = GridSpec([("p", 0.0, 1.0, 21)], {"alpha": 0.1})
    r = scan_linear(g)
    assert len(r.cells) == 21
    assert r.labels == ("00", "01", "10", "11")
    for c in r.cells:
        for v, p, act, bnd in zip(c.values, c.probs, c.activated, c.boundary):
            if act:
                assert c.inputs_ok
                assert v > 1.0 + DELTA
                assert p >= DEGENERATE_PROB
            assert bnd == (abs(v - 1.0) <= DELTA)


def test_scan_linear_requires_parameters():
    with pytest.raises(ArgumentError):
        scan_linear(GridSpec([("p", 0.0, 1.0, 5)]))


def test_scan_linear_audit_on_activated_cells():
    g = GridSpec([("p", 0.05, 0.1, 2)], {"alpha": 0.1})
    r = scan_linear(g, audit_bell=True, cfg=OptConfig(restarts=4, seed=0))
    audited = [c for c in r.cells if c.audit]
    assert audited, "expected at least one activated cell in this window"
    for c in audited:
        for lab, d in c.audit.items():
            assert set(d) == {"chsh", "i3322"}


def test_scan_star_metadata_and_gate():
    g = GridSpec([("p3", 0.0, 1.0, 11)], {"p1": 0.08, "p2": 0.075})
    r = scan_star(0.2, g)
    assert r.metadata["alpha"] == 0.2
    assert r.labels == tuple(str(k) for k in range(1, 9))
    # below the input-unsteerability threshold the gate must be closed
    assert not r.cells[0].inputs_ok  # p3 = 0
    assert r.cells[5].inputs_ok  # p3 = 0.5


def test_scan_genuine_identical_reads_two_parameters():
    g = GridSpec([("s1", 0.0, 1.0, 6)], {"beta1": 0.7})
    r = scan_genuine(g, identical=True)
    assert len(r.cells) == 6
    assert r.metadata["identical"] is True


def test_csv_header_and_shape():
    g = GridSpec([("p", 0.0, 1.0, 5)], {"alpha": 0.1})
    r = scan_linear(g)
    lines = list(csv_lines(r))
    assert lines[0] == (
        "p,s_00,act_00,b_00,s_01,act_01,b_01,s_10,act_10,b_10,s_11,act_11,b_11,inputs_ok"
    )
    assert len(lines) == 6
    assert all(len(line.split(",")) == 14 for line in lines)


def test_csv_rerun_byte_identical():
    g = GridSpec([("p", 0.0, 1.0, 15)], {"alpha": 0.15})
    assert list(csv_lines(scan_linear(g))) == list(csv_lines(scan_linear(g)))


def test_json_round_trip():
    g = GridSpec([("p", 0.2, 0.4, 3)], {"alpha": 0.1})
    r = scan_linear(g)
    loaded = json.loads(dumps(result_to_dict(r)))
    assert loaded["labels"] == ["00", "01", "10", "11"]
    assert len(loaded["cells"]) == 3
    for cell, orig in zip(loaded["cells"], r.cells):
        assert cell["values"] == pytest.approx(list(orig.values), abs=0)
        assert cell["inputs_ok"] == orig.inputs_ok


def test_float_format_round_trips():
    xs = [0.1, 1 / 3, 0.331, 2e-17, 1.0]
    for x in xs:
        assert float(format_float(x)) == x
    assert dumps({"x": 0.1}) == '{"x":0.10000000000000001}'
