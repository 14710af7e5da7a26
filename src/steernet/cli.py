"""Command-line interface.

Subcommands: `check` runs one criterion on one state, `swap` performs the
network swap and reports the conditional outcomes, `scan` writes activation
grids to CSV or JSON, `reproduce` re-runs the packaged reference
configurations and prints PASS/FAIL per table row.

States are given as JSON, e.g. '{"family":"gamma1","p":0.6,"alpha":0.6}';
family "raw" takes "matrix" as four rows of [re, im] pairs. Grid-valued
flags accept either a plain number (held fixed) or lo:hi:n, which sweeps n
intervals, i.e. n+1 evenly spaced points.

Exit codes: 0 success, 1 reproduction mismatch, 2 input error, 3 I/O error.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bloch import decompose
from .criteria import (
    CriterionReport,
    MeasurementTriad,
    _report,
    bell_local_3322,
    bowles_unsteerable,
    canonical_form,
    chsh_max,
    cjwr_max,
    cjwr_value,
    f3_value,
    i3322_max,
    reduced_steering,
)
from .errors import ArgumentError, SteernetError
from .families import make_state
from .netswap import bsm_swap, star_swap
from .optimize import OptConfig
from .qmat import DensityMatrix
from .reproduce import TARGETS
from .sweep import (
    GridSpec,
    csv_lines,
    dumps,
    result_to_dict,
    scan_genuine,
    scan_linear,
    scan_star,
)

_INTERPRET = {
    "f3": {"violated": "steerable", "satisfied": "not-steerable-by-this-criterion"},
    "cjwr": {"violated": "steerable", "satisfied": "not-steerable-by-this-criterion"},
    "cjwr_value": {"violated": "steerable", "satisfied": "not-steerable-by-this-criterion"},
    "reduced_steering": {"violated": "steerable", "satisfied": "not-steerable-by-this-criterion"},
    "chsh": {"violated": "bell-nonlocal", "satisfied": "bell-local"},
    "i3322": {"violated": "bell-nonlocal", "satisfied": "bell-local"},
    "bell_local_3322": {"violated": "bell-nonlocal", "satisfied": "bell-local"},
    "bowles": {"violated": "undecided", "satisfied": "certified-unsteerable"},
    "closed_form": {"violated": "undecided", "satisfied": "certified-unsteerable"},
}


def _report_dict(rep: CriterionReport) -> dict:
    out = {
        "criterion": rep.criterion,
        "value": rep.value,
        "threshold": rep.threshold,
        "verdict": rep.verdict,
        "margin": rep.margin,
    }
    meaning = _INTERPRET.get(rep.criterion, {}).get(rep.verdict)
    if meaning is None and rep.verdict == "boundary":
        meaning = "boundary"
    if meaning is not None:
        out["interpretation"] = meaning
    if rep.witness is not None:
        # bell-local nests its chsh and i3322 reports
        out["witness"] = {
            k: _report_dict(v) if isinstance(v, CriterionReport) else v
            for k, v in rep.witness.items()
        }
    return out


def _parse_state(text: str) -> DensityMatrix:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"state is not valid JSON: {exc}") from exc
    return make_state(d)


def _parse_triad(text: str) -> MeasurementTriad:
    rows = []
    for part in text.split(";"):
        comps = part.split(",")
        if len(comps) != 3:
            raise ArgumentError("triad format is x,y,z;x,y,z;x,y,z")
        try:
            rows.append([float(c) for c in comps])
        except ValueError as exc:
            raise ArgumentError(f"bad triad component in {part!r}") from exc
    if len(rows) != 3:
        raise ArgumentError("a triad needs exactly three vectors")
    return MeasurementTriad(np.array(rows))


# the optional flags each command kind reads; giving any other one is an error
_READS = {
    "check f3": (),
    "check cjwr": ("alice", "charlie"),
    "check chsh": ("restarts", "seed"),
    "check i3322": ("restarts", "seed"),
    "check bell-local": ("restarts", "seed"),
    "check unsteerable": ("restarts", "seed"),
    "scan linear": ("p", "alpha", "alpha_fixed"),
    "scan linear --audit-bell": ("p", "alpha", "alpha_fixed", "audit_bell", "restarts", "seed"),
    "scan star": ("alpha", "p1", "p2", "p3"),
    "scan genuine": ("beta1", "s1", "beta2", "s2"),
    "scan genuine --identical": ("beta1", "s1", "identical"),
}


def _reject_unread(args, kind: str) -> None:
    flags = set().union(*(v for k, v in _READS.items() if k.startswith(args.command + " ")))
    # `is`, not `in (None, False)`: --seed 0 and --restarts 0 count as given
    given = {n for n in flags if getattr(args, n) is not None and getattr(args, n) is not False}
    unread = sorted(given - set(_READS[kind]))
    if unread:
        names = ", ".join("--" + n.replace("_", "-") for n in unread)
        raise ArgumentError(f"{kind} does not read {names}")


def _opt_config(args, restarts: int) -> OptConfig:
    """The search budget from --restarts and --seed, or their defaults."""
    return OptConfig(
        restarts=restarts if args.restarts is None else args.restarts,
        seed=0 if args.seed is None else args.seed,
    )


def cmd_check(args) -> int:
    kind = args.criterion
    _reject_unread(args, f"check {kind}")
    rho = _parse_state(args.state)
    cfg = _opt_config(args, 64)
    if kind == "f3":
        rep = _report("f3", f3_value(decompose(rho)), 1.0, None)
    elif kind == "cjwr":
        if (args.alice is None) != (args.charlie is None):
            raise ArgumentError("give both --alice and --charlie or neither")
        if args.alice is not None:
            ta, tc = _parse_triad(args.alice), _parse_triad(args.charlie)
            rep = _report("cjwr_value", cjwr_value(rho, ta, tc), 1.0, None)
        else:
            rep = cjwr_max(rho)
    elif kind == "chsh":
        rep = chsh_max(rho, cfg)
    elif kind == "i3322":
        rep = i3322_max(rho, cfg)
    elif kind == "bell-local":
        rep = bell_local_3322(rho, cfg)
    elif kind == "unsteerable":
        c = canonical_form(rho)
        rep = bowles_unsteerable(c, cfg)
        rep = dataclasses.replace(rep, witness={**rep.witness, "canonical_a": c.a, "canonical_w": c.w})
    else:
        raise ArgumentError(f"unknown check {kind!r}")
    sys.stdout.write(dumps(_report_dict(rep)) + "\n")
    return 0


def _outcome_dict(out, star: bool) -> dict:
    d = {"label": out.label, "probability": out.probability}
    if out.degenerate:
        d["degenerate"] = True
        return d
    if star:
        # tripartite conditional: no two-qubit Bloch form, report pair verdicts
        d["reduced"] = _report_dict(reduced_steering(out.conditional))
    else:
        b = decompose(out.conditional)
        d.update({"u": b.u, "v": b.v, "W": b.W, "f3": f3_value(b)})
    return d


def cmd_swap(args) -> int:
    left = _parse_state(args.left)
    right = _parse_state(args.right)
    if args.canonical:
        left = canonical_form(left).state()
        right = canonical_form(right).state()
    if args.star is not None:
        third = _parse_state(args.star)
        if args.canonical:
            third = canonical_form(third).state()
        outs = star_swap(left, right, third)
        payload = {"mode": "star", "outcomes": [_outcome_dict(o, True) for o in outs]}
    else:
        outs = bsm_swap(left, right)
        payload = {"mode": "chain", "outcomes": [_outcome_dict(o, False) for o in outs]}
    sys.stdout.write(dumps(payload) + "\n")
    return 0


def _grid_token(text: str):
    """Either a finite float (fixed) or lo:hi:n meaning n intervals, n+1 points."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ArgumentError(f"grid range must be lo:hi:n, got {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ArgumentError(f"bad grid range {text!r}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ArgumentError(f"grid range ends must be finite, got {text!r}")
        if n < 1:
            raise ArgumentError("grid range needs at least 1 interval")
        return (lo, hi, n + 1)
    try:
        value = float(text)
    except ValueError as exc:
        raise ArgumentError(f"expected number or lo:hi:n, got {text!r}") from exc
    if not math.isfinite(value):
        raise ArgumentError(f"grid value must be finite, got {text!r}")
    return value


def _build_grid(args, names) -> GridSpec:
    axes, fixed = [], {}
    for name in names:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        tok = _grid_token(raw)
        if isinstance(tok, tuple):
            axes.append((name, tok[0], tok[1], tok[2]))
        else:
            fixed[name] = tok
    return GridSpec(axes, fixed)


def _emit_result(result, args) -> int:
    """Write the result as CSV or JSON text to --out, or to stdout without it."""
    if args.format == "csv":
        text = "\n".join(csv_lines(result)) + "\n"
    else:
        text = dumps(result_to_dict(result)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def cmd_scan(args) -> int:
    kind = f"scan {args.kind}"
    if args.kind == "linear" and args.audit_bell:
        kind += " --audit-bell"
    if args.kind == "genuine" and args.identical:
        kind += " --identical"
    _reject_unread(args, kind)
    if args.alpha is not None and args.alpha_fixed is not None:
        raise ArgumentError("give --alpha or --alpha-fixed, not both")
    if args.kind == "linear":
        if args.alpha_fixed is not None:
            args.alpha = repr(args.alpha_fixed)
        grid = _build_grid(args, ("p", "alpha"))
        result = scan_linear(grid, audit_bell=args.audit_bell, cfg=_opt_config(args, 8))
    elif args.kind == "star":
        if args.alpha is None:
            raise ArgumentError("star scan needs --alpha")
        tok = _grid_token(args.alpha)
        if isinstance(tok, tuple):
            raise ArgumentError("star scan takes a single --alpha value")
        grid = _build_grid(args, ("p1", "p2", "p3"))
        result = scan_star(tok, grid)
    else:
        grid = _build_grid(args, ("beta1", "s1", "beta2", "s2"))
        result = scan_genuine(grid, identical=args.identical)
    return _emit_result(result, args)


def cmd_reproduce(args) -> int:
    rows = TARGETS[args.target]()
    ok = all(row.ok for row in rows)
    lines = [f"{'PASS' if row.ok else 'FAIL'}  {row.name}: {row.detail}" for row in rows]
    lines.append("result: " + ("all rows PASS" if ok else "some rows FAIL"))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="steernet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run one criterion on one state")
    chk.add_argument("criterion",
                     choices=["f3", "cjwr", "chsh", "i3322", "bell-local", "unsteerable"])
    chk.add_argument("state", help="state JSON")
    chk.add_argument("--alice", help="first-party triad x,y,z;x,y,z;x,y,z (cjwr only)")
    chk.add_argument("--charlie", help="second-party triad (cjwr only)")
    chk.add_argument("--restarts", type=int,
                     help="search restarts (default 64; chsh, i3322, bell-local, unsteerable)")
    chk.add_argument("--seed", type=int, help="search seed (default 0; as --restarts)")
    chk.set_defaults(func=cmd_check)

    swp = sub.add_parser("swap", help="swap two (or three) states and report outcomes")
    swp.add_argument("left", help="state JSON")
    swp.add_argument("right", help="state JSON")
    swp.add_argument("--star", metavar="THIRD", help="third state JSON, star topology")
    swp.add_argument("--canonical", action="store_true",
                     help="map inputs to canonical form before swapping")
    swp.set_defaults(func=cmd_swap)

    scn = sub.add_parser("scan", help="grid scan, writes CSV or JSON")
    scn.add_argument("kind", choices=["linear", "star", "genuine"])
    for name in ("p", "alpha", "p1", "p2", "p3", "beta1", "s1", "beta2", "s2"):
        scn.add_argument(f"--{name}", help="number or lo:hi:n")
    scn.add_argument("--alpha-fixed", type=float, dest="alpha_fixed",
                     help="hold alpha at this value (linear)")
    scn.add_argument("--identical", action="store_true",
                     help="genuine scan with two identical inputs")
    scn.add_argument("--audit-bell", action="store_true", dest="audit_bell",
                     help="also run Bell tests on activated cells (slow)")
    scn.add_argument("--seed", type=int, help="search seed (default 0; linear --audit-bell)")
    scn.add_argument("--restarts", type=int,
                     help="search restarts (default 8; linear --audit-bell)")
    scn.add_argument("--out", help="output path (default stdout)")
    scn.add_argument("--format", choices=["csv", "json"], default="csv")
    scn.set_defaults(func=cmd_scan)

    rep = sub.add_parser("reproduce", help="re-run a packaged reference configuration")
    rep.add_argument("target", choices=sorted(TARGETS))
    rep.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SteernetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
