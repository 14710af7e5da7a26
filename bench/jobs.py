"""Seeded job lists for the three benchmark workloads.

A job is one `steernet` argv vector. Each workload turns a seed into a list
of jobs, which a timed run works through in order (starting over if it
reaches the end); the program under test receives only these vectors.
Parameters are drawn by stratified sampling in blocks of BLOCK jobs: within
a block every stratum of the main parameter is used once, in seeded order,
so any prefix of the list has nearly the same mix of cheap and expensive
jobs whatever the seed. The list is long enough that a run sees many
distinct jobs, which keeps the seed-to-seed spread low.

Standard library only: run.py imports this module without numpy. The closed
forms below are restated here (not imported from the package) so that the
workload design does not move when the package does.
"""

import math
import random

BLOCK = 8
JOBS = 256
QUARTER_PI = math.pi / 4


def _num(x: float) -> str:
    return f"{x:.6f}"


def _blocks(rng: random.Random, n: int):
    """n stratified positions in (0, 1): each block of BLOCK uses every
    stratum once, in seeded order."""
    out = []
    while len(out) < n:
        order = list(range(BLOCK))
        rng.shuffle(order)
        for k in order:
            out.append((k + rng.uniform(0.02, 0.98)) / BLOCK)
    return out[:n]


def _switch_point(pred, lo: float, hi: float) -> float:
    """Where pred changes value on [lo, hi], by bisection; pred(lo) != pred(hi)."""
    at_lo = pred(lo)
    for _ in range(60):
        mid = (lo + hi) / 2
        if pred(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# --- closed forms used only to place the grids -------------------------------

def omega_gate(beta: float, s: float) -> bool:
    """Closed-form omega-family unsteerability gate."""
    if s == 0:
        return True
    return math.cos(2 * beta) ** 2 >= (2 * s - 1) / ((2 - s) * s**3)


def omega_gate_edge(beta: float) -> float:
    """The s in (0.5, 1) where omega_gate(beta, s) turns false."""
    return _switch_point(lambda s: omega_gate(beta, s), 0.5, 1.0)


def _straddle(edge: float, half_step: float, intervals: int) -> str:
    """Axis of intervals+1 points, half of them each side of `edge` (odd intervals)."""
    reach = half_step * intervals
    return f"{_num(edge - reach)}:{_num(edge + reach)}:{intervals}"


# --- workloads -----------------------------------------------------------------

def chain_lines(rng: random.Random, n: int):
    jobs = []
    for x in _blocks(rng, n):
        alpha = QUARTER_PI * x
        lo, hi = rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0)
        jobs.append(["scan", "linear", "--alpha-fixed", _num(alpha),
                     "--p", f"{_num(lo)}:{_num(hi)}:100"])
    return jobs


def star_lines(rng: random.Random, n: int):
    jobs = []
    for x in _blocks(rng, n):
        # the lowest stratum is alpha = 0, where the inputs are product states
        # and most of the eight outcomes are null; the rest crowd towards 0
        alpha = QUARTER_PI * max(0.0, (x * BLOCK - 1) / (BLOCK - 1)) ** 2
        p1, p2 = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        lo, hi = rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0)
        jobs.append(["scan", "star", "--alpha", _num(alpha), "--p1", _num(p1),
                     "--p2", _num(p2), "--p3", f"{_num(lo)}:{_num(hi)}:32",
                     "--format", "json"])
    return jobs


def genuine_gated(rng: random.Random, n: int):
    """Alternating identical s1 lines and non-identical s2 lines, with the
    closed-form gate passing on half the cells of every line. An identical
    line has four cells and a non-identical one two, so each job runs the
    numeric Bowles search twice and job costs stay unimodal."""
    jobs = []
    for i, x in enumerate(_blocks(rng, n)):
        beta = 0.3 + 0.9 * x
        half = rng.uniform(0.004, 0.01)
        if i % 2 == 0:
            jobs.append(["scan", "genuine", "--beta1", _num(beta),
                         "--s1", _straddle(omega_gate_edge(beta), half, 3), "--identical"])
        else:
            beta1 = rng.uniform(0.3, 1.2)
            s1 = rng.uniform(0.2, omega_gate_edge(beta1) - 0.05)
            jobs.append(["scan", "genuine", "--beta1", _num(beta1), "--s1", _num(s1),
                         "--beta2", _num(beta), "--s2", _straddle(omega_gate_edge(beta), half, 1)])
    return jobs


WORKLOADS = {
    "chain-lines": {
        "pair_s": 0.38,
        "make": chain_lines,
        "warmup": ["scan", "linear", "--alpha-fixed", "0.3", "--p", "0:1:2"],
    },
    "star-lines": {
        "pair_s": 0.51,
        "make": star_lines,
        "warmup": ["scan", "star", "--alpha", "0.2", "--p1", "0.08", "--p2", "0.075",
                   "--p3", "0:1:2", "--format", "json"],
    },
    "genuine-gated": {
        "pair_s": 0.57,
        "make": genuine_gated,
        "warmup": ["scan", "genuine", "--beta1", "0.7",
                   "--s1", _straddle(omega_gate_edge(0.7), 0.01, 1), "--identical"],
    },
}


def make_jobs(workload: str, seed: int):
    """The seeded job list of a workload: the same seed gives the same list."""
    return WORKLOADS[workload]["make"](random.Random(f"{workload}:{seed}"), JOBS)


def warmup_job(workload: str):
    return list(WORKLOADS[workload]["warmup"])


def trace_jobs(workload: str, seconds: float) -> int:
    """How many jobs, from the start of the list, a traced run covers. It
    depends only on the workload and `seconds`, never on the speed of the
    host or the program, so traced totals compare between commits. `pair_s`
    is the time of one untraced plus one traced job, at one thread, on the 2-CPU machine
    where the benchmark was defined, so the traced run lasts about
    `seconds` there."""
    return max(2, round(seconds / WORKLOADS[workload]["pair_s"]))
