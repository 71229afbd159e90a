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
from .criteria import LadderConfig, classify
from .estimation import (compactness_probe, lower_bound_details, tg_min_upper_bound,
                         tg_upper_bound)
from .operators import OperatorKind
from .report import (ReportConfig, _verdict_payload, build_report, report_exit_code, to_csv,
                     to_json, to_text)
from .sector import SectorParams, build_sector_map, estimate_density_bound
from .spaces import SpacePair, ray_argmax
from .symbols import get_symbol, ground_truth_table, registry


# the largest counts accepted.  report --angles only sets the config.n_angles
# that the JSON report prints.  A density estimate holds about 140
# bytes per sample (1.4 GB at 10^7); on a 2-vCPU machine the report takes about
# 10 s at degree 4096 and 15 s at 1024 probe monomials; lemma2 costs a density
# estimate per angle (about 2 s at 4096 angles and 1000 samples, 4 min at 10^5)
MAX_ANGLES = 8192
MAX_SAMPLES = 10 ** 7
MAX_DEGREE = 4096
MAX_PROBE_N = 1024
MAX_THETA_COUNT = 4096


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


def _one_of(*options):
    """A type that admits only ``options``.  argparse checks ``choices`` for
    command-line values only, and config-file values arrive as defaults, which
    it converts with the type."""
    def choice(value: str) -> str:
        if value not in options:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(options)})")
        return value
    return choice


def _build_parser(preset=None):
    """The top-level parser and its subcommand parsers by name.

    Options named in ``preset`` are not required; with ``preset=None`` no
    option is, so that a first pass can find the config file.
    """
    def required(dest):
        return preset is not None and dest not in preset

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
            p.add_argument("--format", type=_one_of(*formats), choices=formats, default="text")
        p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("classify", help="classify one (symbol, operator, alpha, beta) cell")
    p.add_argument("--symbol", required=required("symbol"))
    p.add_argument("--op", type=_operator, required=required("op"))
    p.add_argument("--alpha", type=_nonnegative, required=required("alpha"))
    p.add_argument("--beta", type=_nonnegative, required=required("beta"))
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
    p.add_argument("--symbol", required=required("symbol"))
    p.add_argument("--alpha", type=_nonnegative, required=required("alpha"))
    functions = ("g", "gprime")
    p.add_argument("--of", type=_one_of(*functions), choices=functions, default="g")
    p.add_argument("--bloch", action="store_true", help="also print the Bloch norm")
    add_common(p)

    p = sub.add_parser("opnorm", help="empirical lower / split upper operator-norm bounds")
    p.add_argument("--symbol", required=required("symbol"))
    p.add_argument("--op", type=_operator, required=required("op"))
    p.add_argument("--alpha", type=_nonnegative, required=required("alpha"))
    p.add_argument("--beta", type=_nonnegative, required=required("beta"))
    p.add_argument("--t0", type=_cut_radius, default=None,
                   help="cut rung for the split bound (default: best over the schedule)")
    add_common(p)

    p = sub.add_parser("probe", help="weakly-null compactness probe trace")
    p.add_argument("--symbol", required=required("symbol"))
    p.add_argument("--op", type=_operator, required=required("op"))
    p.add_argument("--alpha", type=_nonnegative, required=required("alpha"))
    p.add_argument("--beta", type=_nonnegative, required=required("beta"))
    p.add_argument("--nmax", type=_at_most(MAX_PROBE_N, _probe_count), default=64)
    add_common(p, "json", "csv", "text")

    p = sub.add_parser("lemma2", help="validate the sector-map density bound")
    p.add_argument("--gamma", type=float, required=required("gamma"))
    p.add_argument("--eta", type=float, required=required("eta"))
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
    """Parse once, with no option required, to find the subcommand and its
    ``--config`` file, then again with the file's values as that subcommand's
    defaults; an option the file presets is no longer required.  argparse
    converts string defaults with the option's type, so file values are
    checked like flags; explicit flags win, and keys that are not options are
    ignored."""
    first, _ = _build_parser()[0].parse_known_args(argv)
    known = vars(first)
    presets = {}
    if first.config is not None:
        for key, raw in _read_config(first.config).items():
            if key in known and key not in ("command", "config"):
                # store_true switches take a truth word, not a typed value
                presets[key] = (raw.lower() in ("1", "true", "yes")
                                if isinstance(known[key], bool) else raw)
    parser, commands = _build_parser(presets)
    commands[first.command].set_defaults(**presets)
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

        def absdf(r, s, theta):
            return np.abs(symbol.deriv2(r * unit))
    value, radius = (float(a[0]) for a in ray_argmax(lambda r, s: absf(r, s, ray), args.alpha))
    z = radius * unit + 0.0  # + 0.0: the origin reads 0, not -0, on the ray pi
    lines = [f"weighted sup-norm of {args.of}({args.symbol}) at alpha={args.alpha:g}: "
             f"{value:.12g}",
             f"arg-max z = {z.real:.9g}{z.imag:+.9g}i"
             f"{'' if math.isfinite(value) else '  [divergent]'}"]
    if args.bloch:
        seminorm = float(ray_argmax(lambda r, s: absdf(r, s, ray), 1.0)[0][0])
        lines.append(f"bloch norm: {float(abs(f(0j))) + seminorm:.12g}")
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
    smap = build_sector_map(SectorParams(eta=args.eta))
    approach = smap.vertex_residuals()[-1]
    estimates = [estimate_density_bound(args.gamma, args.eta, n) for n in sizes]
    thetas = [2.0 * math.pi * j / args.theta_count for j in range(args.theta_count)]
    sweep = [estimate_density_bound(args.gamma, args.eta, sizes[0], theta=t) for t in thetas]
    sweep_dev = max(sweep) - min(sweep)
    lines = [f"center residual: {smap.center_residual:.3e}",
             f"vertex solve residual: {smap.vertex_solve_residual:.3e}",
             f"vertex approach residual at 1e-6: {approach:.3e}"]
    for n, est in zip(sizes, estimates):
        lines.append(f"density bound estimate at {n} samples: {est:.9f}")
    lines.append(f"rotation sweep deviation over {args.theta_count} angles: {sweep_dev:.3e}")
    monotone = all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))
    bounded = all(math.isfinite(e) for e in estimates)
    ok = (smap.center_residual < 1e-10 and smap.vertex_solve_residual < 1e-10
          and approach < 1e-3 and monotone and bounded)
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
