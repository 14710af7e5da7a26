"""Correctness check of one benchmark job's output, run outside the timed region.

For every cell the check re-derives the act_*/b_* flags from value,
probability, gate and DELTA, and compares `inputs_ok` with a gate computed
here. For a seeded sample of cells it recomputes each outcome with the dense
projector oracles of the test suite (`chain_swap_oracle`, `star_swap_oracle`
in tests/util.py), from input states built here, and compares values and
probabilities to 1e-9, with f3 taken from Pauli traces built here.

`check_job` returns (cells, failure): the number of grid cells in the output
and None, or a one-line reason for the first mismatch found.
"""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from jobs import omega_gate
from steernet.netswap import bell_basis, star_basis

DELTA = 1e-6
PROB_FLOOR = 1e-12
VALUE_TOL = 1e-9
GATE_MARGIN = 1e-9  # gates this close to their threshold are not compared

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("steernet_test_oracles", _ROOT / "tests" / "util.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_PAIRS = [[np.kron(a, b) for b in (_SX, _SY, _SZ)] for a in (_SX, _SY, _SZ)]

# the measurement bases are definitions, not computation: take them from the package
_BELL = tuple(zip(("00", "01", "10", "11"), bell_basis().vectors))
_STAR = tuple((str(j + 1), vec) for j, vec in enumerate(star_basis().vectors))


# --- states and quantities built independently of the package -----------------

def _ket(bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int("".join(map(str, bits)), 2)] = 1.0
    return v


def gamma_state(p, alpha, extra):
    phi = math.sin(alpha) * _ket((0, 1)) + math.cos(alpha) * _ket((1, 0))
    k = _ket(extra)
    return (1 - p) * np.outer(phi, phi.conj()) + p * np.outer(k, k.conj())


def omega_state(beta, s):
    chi = math.cos(beta) * _ket((0, 0)) + math.sin(beta) * _ket((1, 1))
    om1 = np.diag([math.cos(beta) ** 2, math.sin(beta) ** 2]).astype(complex)
    return s * np.outer(chi, chi.conj()) + (1 - s) * np.kron(om1, np.eye(2) / 2)


def flattened(rho):
    """Sandwich by (I x rho_B^-1/2) and renormalize: the canonical map."""
    rb = np.einsum("abac->bc", rho.reshape(2, 2, 2, 2))
    vals, vecs = np.linalg.eigh(rb)
    x = (vecs * vals**-0.5) @ vecs.conj().T
    sx = np.kron(np.eye(2), x)
    m = sx @ rho @ sx
    return m / np.trace(m).real


def correlation(m):
    return np.array([[np.trace(m @ op).real for op in row] for row in _PAULI_PAIRS])


def f3(m):
    w = correlation(m)
    return float(np.sum(w * w))


def _pair_reductions(m8):
    t = m8.reshape(2, 2, 2, 2, 2, 2)
    return (
        np.einsum("abcdec->abde", t).reshape(4, 4),  # (1,2)
        np.einsum("abcdbf->acdf", t).reshape(4, 4),  # (1,3)
        np.einsum("abcaef->bcef", t).reshape(4, 4),  # (2,3)
    )


# --- argv and output parsing ------------------------------------------------------

_AXES = {"linear": ("p", "alpha"), "star": ("p1", "p2", "p3"),
         "genuine": ("beta1", "s1", "beta2", "s2")}


def parse_argv(argv):
    """(kind, axes [(name, points)], fixed {name: value}, flags) of a scan argv."""
    kind = argv[1]
    opts, flags, i = {}, set(), 2
    while i < len(argv):
        key = argv[i][2:]
        if key == "identical":
            flags.add(key)
            i += 1
        else:
            opts[key] = argv[i + 1]
            i += 2
    if "alpha-fixed" in opts:
        opts["alpha"] = opts.pop("alpha-fixed")
    axes, fixed = [], {}
    for name in _AXES[kind]:
        text = opts.get(name)
        if text is None:
            continue
        if ":" in text:
            lo, hi, n = text.split(":")
            axes.append((name, np.linspace(float(lo), float(hi), int(n) + 1)))
        else:
            fixed[name] = float(text)
    if kind == "star":
        fixed["alpha"] = float(opts["alpha"])
    return kind, axes, fixed, flags, opts.get("format", "csv")


def parse_output(text, fmt, axis_names):
    """Cells as dicts with coords, values, probs (None for CSV), act, b, ok."""
    if fmt == "json":
        doc = json.loads(text)
        labels = doc["labels"]
        cells = [
            {"coords": c["coords"], "values": c["values"], "probs": c["probs"],
             "act": c["activated"], "b": c["boundary"], "ok": c["inputs_ok"]}
            for c in doc["cells"]
        ]
        return labels, cells
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV output does not end with a newline")
    header = lines[0].split(",")
    labels = [h[2:] for h in header if h.startswith("s_")]
    expect = list(axis_names)
    for lab in labels:
        expect += [f"s_{lab}", f"act_{lab}", f"b_{lab}"]
    if header != expect + ["inputs_ok"]:
        raise ValueError(f"unexpected CSV header {header}")
    cells = []
    for line in lines[1:-1]:
        f = line.split(",")
        n = len(axis_names)
        coords = {name: float(f[k]) for k, name in enumerate(axis_names)}
        cells.append({
            "coords": coords,
            "values": [float(f[n + 3 * k]) for k in range(len(labels))],
            "probs": None,
            "act": [f[n + 3 * k + 1] == "1" for k in range(len(labels))],
            "b": [f[n + 3 * k + 2] == "1" for k in range(len(labels))],
            "ok": f[-1] == "1",
        })
    return labels, cells


# --- the check ----------------------------------------------------------------------

class Mismatch(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _inputs(kind, params, identical):
    """Input matrices for the oracle, and the independently computed gate
    (None where the gate is left to `inputs_ok` and checked separately)."""
    if kind == "linear":
        p, a = params["p"], params["alpha"]
        ins = (gamma_state(p, a, (0, 0)), gamma_state(p, a, (1, 1)))
        return ins, [f3(m) for m in ins]
    if kind == "star":
        a = params["alpha"]
        ins = tuple(gamma_state(params[k], a, (0, 0)) for k in ("p1", "p2", "p3"))
        return ins, [f3(m) for m in ins]
    b1, s1 = params["beta1"], params["s1"]
    b2, s2 = (b1, s1) if identical else (params["beta2"], params["s2"])
    return (flattened(omega_state(b1, s1)), flattened(omega_state(b2, s2))), None


def _oracle_outcomes(kind, ins):
    """[(label, probability, conditional or None)] by dense projection."""
    if kind == "star":
        wrapped = [SimpleNamespace(mat=m) for m in ins]
        return [(lab, *oracles.star_swap_oracle(*wrapped, vec)) for lab, vec in _STAR]
    left, right = SimpleNamespace(mat=ins[0]), SimpleNamespace(mat=ins[1])
    return [(lab, *oracles.chain_swap_oracle(left, right, vec)) for lab, vec in _BELL]


def _check_cell(kind, cell, labels, params, identical, sampled):
    values, probs = cell["values"], cell["probs"]
    ok = cell["ok"]
    ins, input_f3 = _inputs(kind, params, identical)
    if input_f3 is not None:
        worst = max(input_f3)
        if abs(worst - (1 - DELTA)) > GATE_MARGIN:
            _expect(ok == (worst <= 1 - DELTA), f"inputs_ok={ok} but input f3 max {worst!r}")
    else:
        b2, s2 = ((params["beta1"], params["s1"]) if identical
                  else (params["beta2"], params["s2"]))
        if ok:
            _expect(omega_gate(params["beta1"], params["s1"]) and omega_gate(b2, s2),
                    "inputs_ok set although the closed-form omega gate fails")
    if any(math.isnan(v) for v in values):
        _expect(not ok and not any(cell["act"]) and not any(cell["b"]), "NaN row with flags set")
        return
    oracle_p = {}
    if sampled:
        for k, (lab, p, cond) in enumerate(_oracle_outcomes(kind, ins)):
            _expect(lab == labels[k], f"outcome label {labels[k]} != {lab}")
            oracle_p[lab] = p
            if probs is not None:
                _expect(abs(probs[k] - p) <= VALUE_TOL, f"outcome {lab}: p {probs[k]!r} vs oracle {p!r}")
            if p < PROB_FLOOR:
                continue
            if kind == "star":
                want = max(f3(r) for r in _pair_reductions(cond))
            else:
                want = f3(cond)
            _expect(abs(values[k] - want) <= VALUE_TOL,
                    f"outcome {lab}: value {values[k]!r} vs oracle {want!r}")
    for k, lab in enumerate(labels):
        v = values[k]
        if probs is not None:
            p_ok = probs[k] >= PROB_FLOOR
        elif lab in oracle_p:
            p_ok = oracle_p[lab] >= PROB_FLOOR
        else:
            p_ok = True  # null outcomes carry the maximally mixed placeholder, value 0
        want_act = bool(ok and p_ok and v > 1 + DELTA)
        _expect(cell["act"][k] == want_act, f"outcome {lab}: act={cell['act'][k]} expected {want_act}")
        want_b = abs(v - 1) <= DELTA
        _expect(cell["b"][k] == want_b, f"outcome {lab}: boundary={cell['b'][k]} expected {want_b}")


def check_job(argv, rc, out, err, sample_seed, samples):
    """Check one job. `samples` cells (all if None) are recomputed with the
    oracles, chosen by a generator seeded with `sample_seed`."""
    if rc != 0:
        return 0, f"exit code {rc}: {err.strip()[:200]}"
    try:
        kind, axes, fixed, flags, fmt = parse_argv(argv)
        names = [a[0] for a in axes]
        labels, cells = parse_output(out, fmt, names)
        shape = [len(a[1]) for a in axes]
        _expect(len(cells) == math.prod(shape), f"{len(cells)} cells for grid {shape}")
        if samples is None or samples >= len(cells):
            picked = set(range(len(cells)))
        else:
            rng = np.random.default_rng(sample_seed)
            picked = set(rng.choice(len(cells), size=samples, replace=False).tolist())
        identical = "identical" in flags
        for i, (idx, cell) in enumerate(zip(np.ndindex(*shape), cells)):
            want = {name: float(axes[j][1][idx[j]]) for j, name in enumerate(names)}
            _expect(all(abs(cell["coords"][n] - want[n]) <= 1e-15 for n in names),
                    f"cell {i} coords {cell['coords']} expected {want}")
            params = dict(fixed)
            params.update(want)
            _check_cell(kind, cell, labels, params, identical, i in picked)
    except Mismatch as exc:
        return 0, str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return 0, f"unreadable output: {type(exc).__name__}: {exc}"
    return len(cells), None
