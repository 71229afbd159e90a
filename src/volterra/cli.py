"""Command-line interface.

Exit codes follow a CI-friendly contract: 0 for a decided verdict (or a clean
report), 2 for Inconclusive results, 1 for usage errors and ground-truth
disagreements.  All output is deterministic; the ``VOLTERRA_WORKERS``
environment variable selects the worker count for report rows and has no
effect on the bytes produced.

A config file (``--config``) may preset any long option of the chosen
subcommand, one ``key = value`` pair per line with ``#`` comments; explicit
command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HypothesisError, UnknownSymbolError, VolterraError
from .criteria import LadderConfig, classify, profile_sup
from .estimation import (compactness_probe, lower_bound_details, tg_min_upper_bound,
                         tg_upper_bound)
from .operators import OperatorKind
from .report import (ReportConfig, _verdict_payload, build_report, report_exit_code, to_csv,
                     to_json, to_text)
from .sector import SectorParams, build_sector_map, density_bound, estimate_density_bound
from .spaces import SpacePair, ray_argmax
from .symbols import get_symbol, ground_truth_table, registry


# the largest counts accepted.  report --angles only sets the config.n_angles
# that the JSON report prints.  A density estimate holds about 64
# bytes per sample (640 MB at 10^7); on a 2-vCPU machine the report takes about
# 10 s at degree 4096 and 15 s at 1024 probe monomials; lemma2 builds a sector
# map per angle (about 0.05 s at 4096 angles) and a density estimate per sample
# count (about 0.65 s at 10^7)
MAX_ANGLES = 8192
MAX_SAMPLES = 10 ** 7
MAX_DEGREE = 4096
MAX_PROBE_N = 1024
MAX_THETA_COUNT = 4096

# how far, in units in the last place of the exact bound, a sampled estimate
# may exceed it before lemma2 fails
DENSITY_BOUND_SLACK_ULPS = 4


def _angle_count(value: str) -> int:
    n = int(value)
    if not 64 <= n <= MAX_ANGLES or (n & (n - 1)) != 0:
        raise argparse.ArgumentTypeError(
            f"angle count must be a power of two in [64, {MAX_ANGLES}], got {value}")
    return n


def _nonnegative(value: str) -> float:
    x = float(value)
    if not 0.0 <= x < math.inf:
        raise argparse.ArgumentTypeError("weight exponents must be finite and nonnegative")
    return x


def _cut_radius(value: str) -> float:
    t = float(value)
    if not 0.0 < t < 1.0:
        raise argparse.ArgumentTypeError(f"the cut radius must lie in (0, 1), got {value}")
    return t


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {value}")
    return n


def _degree(value: str) -> int:
    n = _positive_int(value)
    if n < 8:  # the report schema's minimum for config.degree
        raise argparse.ArgumentTypeError(f"the report needs a degree of at least 8, got {value}")
    return n


def _probe_count(value: str) -> int:
    n = int(value)
    if n < 16:
        raise argparse.ArgumentTypeError(f"probe traces need at least 16 monomials, got {value}")
    return n


def _at_most(bound: int, parse=_positive_int):
    """The count parser ``parse`` with an upper bound."""
    def checked(value: str) -> int:
        n = parse(value)
        if n > bound:
            raise argparse.ArgumentTypeError(f"need at most {bound}, got {value}")
        return n
    checked.__name__ = parse.__name__  # argparse names it in "invalid ... value"
    return checked


def _sample_sizes(value: str) -> list:
    sizes = [_positive_int(part) for part in value.split(",")]
    if max(sizes) > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"each sample count must be at most {MAX_SAMPLES}, got {max(sizes)}")
    return sizes


def _kmax(value: str) -> int:
    k = int(value)
    if not (4 <= k <= 40):
        raise argparse.ArgumentTypeError("kmax must lie in [4, 40]")
    return k


def _operator(value: str) -> OperatorKind:
    try:
        return OperatorKind(value)
    except ValueError:
        raise argparse.ArgumentTypeError("operator must be Tg or Sg") from None


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="volterra",
        description="Boundedness/compactness classification of Volterra-type "
                    "integral operators on weighted disk spaces.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *formats):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value file presetting these options")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("classify", help="classify one (symbol, operator, alpha, beta) cell")
    p.add_argument("--symbol", required=True)
    p.add_argument("--op", type=_operator, required=True)
    p.add_argument("--alpha", type=_nonnegative, required=True)
    p.add_argument("--beta", type=_nonnegative, required=True)
    p.add_argument("--kmax", type=_kmax, default=40)
    add_common(p, "json", "text")

    p = sub.add_parser("report", help="classify and probe the whole ground-truth table")
    p.add_argument("--kmax", type=_kmax, default=40)
    p.add_argument("--angles", type=_angle_count, default=512,
                   help="only sets the config.n_angles that the report prints; every "
                        "angular sup is taken on the symbol's peak ray")
    p.add_argument("--degree", type=_at_most(MAX_DEGREE, _degree), default=256)
    p.add_argument("--probe-nmax", type=_at_most(MAX_PROBE_N, _probe_count), default=64)
    add_common(p, "json", "csv", "text")

    p = sub.add_parser("norm", help="weighted sup-norm of a registry symbol, on its peak ray")
    p.add_argument("--symbol", required=True)
    p.add_argument("--alpha", type=_nonnegative, required=True)
    functions = ("g", "gprime")
    p.add_argument("--of", choices=functions, default="g")
    p.add_argument("--bloch", action="store_true", help="also print the Bloch norm")
    add_common(p)

    p = sub.add_parser("opnorm", help="empirical lower / split upper operator-norm bounds")
    p.add_argument("--symbol", required=True)
    p.add_argument("--op", type=_operator, required=True)
    p.add_argument("--alpha", type=_nonnegative, required=True)
    p.add_argument("--beta", type=_nonnegative, required=True)
    p.add_argument("--t0", type=_cut_radius, default=None,
                   help="cut rung for the split bound (default: best over the schedule)")
    add_common(p)

    p = sub.add_parser("probe", help="weakly-null compactness probe trace")
    p.add_argument("--symbol", required=True)
    p.add_argument("--op", type=_operator, required=True)
    p.add_argument("--alpha", type=_nonnegative, required=True)
    p.add_argument("--beta", type=_nonnegative, required=True)
    p.add_argument("--nmax", type=_at_most(MAX_PROBE_N, _probe_count), default=64)
    add_common(p, "json", "csv", "text")

    p = sub.add_parser("lemma2", help="validate the sector-map density bound")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--theta-count", type=_at_most(MAX_THETA_COUNT), default=8)
    p.add_argument("--samples", type=_sample_sizes, default="1000,10000,100000")
    add_common(p)

    p = sub.add_parser("list", help="registry symbols, metadata, ground-truth rows")
    add_common(p, "json", "text")
    return parser, sub.choices


def _read_config(path: Path) -> dict:
    """``key = value`` pairs of a config file, keys spelled as option dests."""
    presets = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        presets[key.replace("-", "_")] = value
    return presets


def _parse(argv):
    """Parse ``argv`` with the ``--config`` file's values inserted as options
    right after the subcommand, so that explicit flags, which come later, win
    and file values are typed and checked like flags.  A key that is not an
    option of the subcommand is ignored; a ``store_true`` switch takes a truth
    word.  A malformed ``--config`` is left for the full parser to report."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", type=Path)
    try:
        config = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        config = None
    parser, commands = _build_parser()
    # the top-level options take no value, so the subcommand is the first word
    at = next((i for i, word in enumerate(argv) if not word.startswith("-")), None)
    if config is not None and at is not None and argv[at] in commands:
        options = {action.dest: action for action in commands[argv[at]]._actions
                   if action.option_strings and action.default is not argparse.SUPPRESS}
        presets = []
        for key, raw in _read_config(config).items():
            action = options.get(key)
            if action is None or key == "config":
                continue
            if action.nargs != 0:
                presets.append(f"{action.option_strings[0]}={raw}")
            elif raw.lower() in ("1", "true", "yes"):
                presets.append(action.option_strings[0])
        argv = argv[:at + 1] + presets + argv[at + 1:]
    return parser.parse_args(argv)


def _emit(payload: str, output) -> None:
    if output is not None:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _verdict_line(name, v) -> str:
    extra = f" value={v.value:.9g}" if v.value is not None else ""
    tail = f" ({v.reason})" if v.reason else ""
    return f"{name}: {v.tag.value}{extra}  [{', '.join(v.evidence)}]{tail}"


def cmd_classify(args) -> int:
    symbol = get_symbol(args.symbol)
    cfg = LadderConfig(k_max=args.kmax)
    rep = classify(symbol, args.op, SpacePair(args.alpha, args.beta), cfg)
    if args.format == "json":
        payload = json.dumps({
            "symbol": rep.symbol, "op": rep.operator.value,
            "alpha": rep.alpha, "beta": rep.beta,
            "boundedness": _verdict_payload(rep.boundedness),
            "compactness": _verdict_payload(rep.compactness),
            "cross_check_agreement": rep.cross_check_agreement,
            "notes": list(rep.notes),
        }, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{rep.symbol}  {rep.operator.value}  alpha={rep.alpha:g} beta={rep.beta:g}",
                 _verdict_line("boundedness", rep.boundedness),
                 _verdict_line("compactness", rep.compactness),
                 f"cross-check agreement: {rep.cross_check_agreement}"]
        lines.extend(f"note: {n}" for n in rep.notes)
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return 2 if not (rep.boundedness.decided and rep.compactness.decided) else 0


def cmd_report(args) -> int:
    cfg = ReportConfig(k_max=args.kmax, n_angles=args.angles,
                       degree=args.degree, probe_n_max=args.probe_nmax)
    doc = build_report(cfg)
    if args.format == "json":
        payload = to_json(doc)
    elif args.format == "csv":
        payload = to_csv(doc)
    else:
        payload = to_text(doc)
    _emit(payload, args.output)
    return report_exit_code(doc)


def _ray_sup(absf, exponent: float):
    """``sup (1-r^2)^exponent absf`` on the peak ray and a radius attaining it:
    the larger of the ray maximum and the boundary profile's reading, since the
    ray stops at the grid's last radius ``1 - 2^-24`` and misses a limit at the
    boundary; inf (at the ray's radius) when the profile diverges."""
    value, radius = (float(a[0]) for a in ray_argmax(absf, exponent))
    edge, rung = profile_sup(absf, exponent)
    if math.isinf(edge):
        return edge, radius
    return (edge, rung) if edge > value else (value, radius)


def _divergent(value: float) -> str:
    return "" if math.isfinite(value) else "  [divergent]"


def cmd_norm(args) -> int:
    """The sup of ``(1-r^2)^alpha |f|`` on the symbol's peak ray, which holds
    the sup of ``|g|``, ``|g'|`` and ``|g''|`` on every circle, and the Bloch
    norm ``|f(0)| + sup (1-r^2) |f'|`` read the same way."""
    symbol = get_symbol(args.symbol)
    ray = symbol.peak_ray
    # the ray's unit vector, rounded so that the ray pi reads -1, not -1 + 1.2e-16i
    unit = complex(round(math.cos(ray), 15), round(math.sin(ray), 15))
    if args.of == "g":
        f, absf, absdf = symbol.eval, symbol.abs_eval, symbol.abs_deriv
    else:
        f, absf = symbol.deriv, symbol.abs_deriv

        def absdf(r, s):
            return np.abs(symbol.deriv2(r * unit))
    value, radius = _ray_sup(absf, args.alpha)
    z = radius * unit + 0.0  # + 0.0: the origin reads 0, not -0, on the ray pi
    lines = [f"weighted sup-norm of {args.of}({args.symbol}) at alpha={args.alpha:g}: "
             f"{value:.12g}",
             f"arg-max z = {z.real:.9g}{z.imag:+.9g}i{_divergent(value)}"]
    if args.bloch:
        bloch = float(abs(f(0j))) + _ray_sup(absdf, 1.0)[0]
        lines.append(f"bloch norm: {bloch:.12g}{_divergent(bloch)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_opnorm(args) -> int:
    symbol = get_symbol(args.symbol)
    pair = SpacePair(args.alpha, args.beta)
    lower = lower_bound_details(symbol, args.op, pair)
    lines = [f"empirical lower bound: {lower.value:.9g}  (witness {lower.best_label})"]
    if args.op is OperatorKind.Tg:
        try:
            if args.t0 is not None:
                upper = tg_upper_bound(symbol, pair, args.t0)
                lines.append(f"split upper bound at t0={args.t0!r}: {upper:.9g}")
            else:
                # the cut in full: --t0 accepts only exact rungs such as 1 - 2^-39
                upper, t0 = tg_min_upper_bound(symbol, pair)
                lines.append(f"split upper bound: {upper:.9g}  (cut t0={t0!r})")
        except HypothesisError as exc:
            lines.append(f"split upper bound: not available ({exc})")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_probe(args) -> int:
    symbol = get_symbol(args.symbol)
    trace = compactness_probe(symbol, args.op, SpacePair(args.alpha, args.beta), args.nmax)
    if args.format == "json":
        payload = json.dumps({
            "symbol": args.symbol, "op": args.op.value,
            "alpha": args.alpha, "beta": args.beta,
            "indices": list(trace.indices), "values": list(trace.values),
            "decay_exponent": trace.decay_exponent,
        }, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        rows = ["n,value"] + [f"{n},{v!r}" for n, v in zip(trace.indices, trace.values)]
        payload = "\n".join(rows) + "\n"
    else:
        payload = (f"probe {args.symbol} {args.op.value} alpha={args.alpha:g} "
                   f"beta={args.beta:g}: final={trace.final_value:.6g} "
                   f"decay exponent={trace.decay_exponent:.4f}\n")
    _emit(payload, args.output)
    return 0


def cmd_lemma2(args) -> int:
    if not (0.0 < args.gamma < args.eta < math.pi):
        sys.stderr.write("error: need 0 < gamma < eta < pi\n")
        return 1
    sizes = args.samples

    def residuals(theta):
        smap = build_sector_map(SectorParams(eta=args.eta, theta=theta))
        return (smap.center_residual, smap.vertex_solve_residual,
                smap.vertex_residuals((1e-6,))[0])
    # the estimate is the same at every bisector angle, so it is made once per
    # count, and the rotation sweep checks each angle's map; the first angle is 0
    sweep = [residuals(2.0 * math.pi * j / args.theta_count) for j in range(args.theta_count)]
    center, solve, approach = sweep[0]
    worst = [max(column) for column in zip(*sweep)]
    estimates = [estimate_density_bound(args.gamma, args.eta, n) for n in sizes]
    exact = density_bound(args.gamma, args.eta)
    lines = [f"center residual: {center:.3e}",
             f"vertex solve residual: {solve:.3e}",
             f"vertex approach residual at 1e-6: {approach:.3e}",
             f"exact density bound: {exact:.9f}"]
    for n, est in zip(sizes, estimates):
        lines.append(f"density bound estimate at {n} samples: {est:.9f} "
                     f"(relative gap {(exact - est) / exact:.3e})")
    lines.append("worst residuals over {} angles: center {:.3e}, vertex solve {:.3e}, "
                 "vertex approach {:.3e}".format(args.theta_count, *worst))
    monotone = all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))
    bounded = all(math.isfinite(e) and e <= exact + DENSITY_BOUND_SLACK_ULPS * math.ulp(exact)
                  for e in estimates)
    ok = (worst[0] < 1e-10 and worst[1] < 1e-10 and worst[2] < 1e-3
          and monotone and bounded)
    lines.append(f"status: {'ok' if ok else 'FAILED'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def cmd_list(args) -> int:
    doc = {
        "symbols": [{
            "name": s.name,
            "metadata": {
                "is_zero": s.metadata.is_zero,
                "univalent": s.metadata.univalent,
                "log_deriv_bloch": s.metadata.log_deriv_bloch,
                "log_symbol_bloch": s.metadata.log_symbol_bloch,
                "note": s.metadata.note,
            },
        } for s in registry()],
        "ground_truth": [{
            "symbol": r.symbol, "op": r.operator.value,
            "alpha": r.alpha, "beta": r.beta,
            "boundedness": r.boundedness, "compactness": r.compactness,
            "value": r.value, "value_tol": r.value_tol,
            "justification": r.justification,
        } for r in ground_truth_table()],
    }
    if args.format == "json":
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{s['name']:<10} zero={s['metadata']['is_zero']} "
                 f"univalent={s['metadata']['univalent']} "
                 f"log_deriv_bloch={s['metadata']['log_deriv_bloch']} "
                 f"log_symbol_bloch={s['metadata']['log_symbol_bloch']}"
                 for s in doc["symbols"]]
        lines.append(f"{len(doc['ground_truth'])} ground-truth rows")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "report": cmd_report,
    "norm": cmd_norm,
    "opnorm": cmd_opnorm,
    "probe": cmd_probe,
    "lemma2": cmd_lemma2,
    "list": cmd_list,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse reserves 2 for usage errors; our exit-code contract uses 1
        # for errors and 2 for Inconclusive verdicts
        code = int(exc.code or 0)
        return 1 if code == 2 else code
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UnknownSymbolError as exc:
        sys.stderr.write(f"error: unknown symbol {exc}\n")
        return 1
    except (VolterraError, ValueError, OSError) as exc:
        # OSError: an --output path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
