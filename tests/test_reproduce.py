import pytest

from steernet import cli, reproduce

# criteria 6 and 7 of test_acceptance own the star rows 1 and 8 and the
# genuine rows, so only their names are checked here
_WINDOW_TARGETS = ("linear-region", "star-table", "genuine-table")


@pytest.fixture(scope="module")
def rows():
    return {target: reproduce.TARGETS[target]() for target in _WINDOW_TARGETS}


def test_window_targets_return_one_row_per_label(rows):
    assert [r.name for r in rows["linear-region"]] == [
        "outcome 00 window",
        "outcome 01 window",
        "outcome 10 never activated",
        "outcome 11 never activated",
    ]
    assert [r.name for r in rows["star-table"]] == [
        f"outcome {k} activation range" if k in (1, 6, 7, 8) else f"outcome {k} never activated"
        for k in range(1, 9)
    ]
    assert [r.name for r in rows["genuine-table"]] == [
        "row (0.75, 0.76, 0.99) outcome 00 s2-range",
        "row (0.65, 0.6, 0.97) outcome 00 s2-range",
        "row (0.55, 0.55, 0.9) outcome 00 s2-range",
        "row (0.6, 0.55, 0.8) outcome 00 s2-range",
    ]
    assert all(r.ok for r in rows["linear-region"])
    assert all(r.ok for r in rows["star-table"][1:7])


@pytest.mark.parametrize("target", _WINDOW_TARGETS)
def test_cli_prints_the_rows_and_exits_0_iff_all_pass(target, rows, monkeypatch, capsys):
    # serve the rows computed once above instead of scanning again
    monkeypatch.setitem(reproduce.TARGETS, target, lambda: rows[target])
    code = cli.main(["reproduce", target])
    lines = capsys.readouterr().out.splitlines()
    ok = all(r.ok for r in rows[target])
    assert code == (0 if ok else 1)
    assert lines[:-1] == [f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}" for r in rows[target]]
    assert lines[-1] == "result: " + ("all rows PASS" if ok else "some rows FAIL")
