"""Self-tests of the benchmark harness, kept out of the package's test suite.

    python3 -m pytest -q bench/test_harness.py

They run every workload briefly (about two minutes on two CPUs).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import verify  # noqa: E402
from worker import run_job  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=180)


def _minimal(workload, trace, seed=7, root=ROOT):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), cwd=root, script=root / "bench" / "run.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_minimal_run_emits_every_metric_with_its_unit(workload):
    result, report = _minimal(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["metrics"]["failed_frac"]["value"] == 0

    result, report = _minimal(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert report["metrics"]["trace.jobs"]["value"] == jobs.trace_jobs(workload, 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    ceiling = m["trace.job_wall_s"] * m["trace.pool_size"]
    for name, value in m.items():
        if name.endswith(".self_s"):
            assert 0 <= value <= ceiling, (name, value, ceiling)
    assert m["sweep.cells"] > 0


def test_same_seed_same_digest_and_other_seed_differs():
    first = _minimal("chain-lines", trace=0, seed=3)[1]["digest"]
    again = _minimal("chain-lines", trace=0, seed=3)[1]["digest"]
    other = _minimal("chain-lines", trace=0, seed=4)[1]["digest"]
    assert first == again != other


def test_job_lists_are_seeded():
    for name in WORKLOAD_NAMES:
        assert jobs.make_jobs(name, 11) == jobs.make_jobs(name, 11)
        assert jobs.make_jobs(name, 11) != jobs.make_jobs(name, 12)


def _perturb_csv(text, column, change):
    lines = text.split("\n")
    header = lines[0].split(",")
    row = lines[1].split(",")
    k = header.index(column)
    row[k] = change(row[k])
    lines[1] = ",".join(row)
    return "\n".join(lines)


def _perturb_json(text, change):
    doc = json.loads(text)
    change(doc["cells"][0])
    return json.dumps(doc)


@pytest.fixture(scope="module")
def outputs():
    from steernet import cli

    got = {}
    for name in WORKLOAD_NAMES:
        argv = jobs.make_jobs(name, 5)[0]
        rc, out, err, _ = run_job(cli.main, argv)
        assert rc == 0, err
        got[name] = (argv, out)
    return got


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_perturbed_output_is_caught(outputs, workload):
    argv, out = outputs[workload]
    assert verify.check_job(argv, 0, out, "", [0, 0], None)[1] is None

    def nudge(x):
        return repr(float(x) + 1e-7)

    if "--format" in argv:
        def bump_value(cell):
            cell["values"][0] += 1e-7

        def flip_flag(cell):
            cell["boundary"][0] = not cell["boundary"][0]

        broken = [_perturb_json(out, bump_value), _perturb_json(out, flip_flag)]
    else:
        broken = [_perturb_csv(out, "s_00", nudge),
                  _perturb_csv(out, "b_00", lambda f: "0" if f == "1" else "1")]
    for text in broken:
        cells, failure = verify.check_job(argv, 0, text, "", [0, 0], None)
        assert failure is not None


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _copy_checkout(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    (dest / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "util.py", dest / "tests" / "util.py")


def _rename(path, old, new):
    text = path.read_text()
    assert re.search(rf"\b{old}\b", text), (path, old)
    path.write_text(re.sub(rf"\b{old}\b", new, text))


def test_traced_run_survives_removed_private_names(tmp_path):
    """A refactor that drops a private function the tracer wraps zeroes the
    metrics built on it; the traced run still completes."""
    _copy_checkout(tmp_path)
    pkg = tmp_path / "src" / "steernet"
    _rename(pkg / "sweep.py", "_pool_map", "_map_cells")
    _rename(pkg / "cli.py", "_emit_result", "_write_result")
    for module in ("optimize.py", "criteria.py"):  # criteria imports _nm
        _rename(pkg / module, "_nm", "_nelder_mead")
    result, report = _minimal("genuine-gated", trace=1, root=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert sorted(report["trace_skipped"]) == [
        "cli._emit_result", "optimize._nm", "sweep._pool_map"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["sweep.pool_wait_s"] == m["sweep.serialize_s"] == 0
    assert m["criteria.bowles.calls"] > 0 and m["optimize.restarts"] > 0
