"""CLI surface: exit codes, formats, config file, schema conformance."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from volterra.cli import main
from volterra.report import (CSV_HEADER, ReportConfig, build_report,
                             report_exit_code, to_csv, to_json)
from volterra.spaces import weighted_sup_norm
from volterra.symbols import get_symbol, symbol_names


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_unbounded_exits_zero(capsys):
    code, out, _ = run(capsys, "classify", "--symbol", "log", "--op", "Tg",
                       "--alpha", "0", "--beta", "0")
    assert code == 0
    assert "Unbounded" in out


def test_classify_zero_symbol_compact(capsys):
    code, out, _ = run(capsys, "classify", "--symbol", "zero", "--op", "Sg",
                       "--alpha", "1", "--beta", "0")
    assert code == 0
    assert "Compact" in out


def test_classify_unknown_symbol_exits_one(capsys):
    code, _, err = run(capsys, "classify", "--symbol", "nosuch", "--op", "Tg",
                       "--alpha", "0", "--beta", "0")
    assert code == 1
    assert "unknown symbol" in err


def test_classify_starved_schedule_exits_two(capsys):
    code, out, _ = run(capsys, "classify", "--symbol", "identity", "--op", "Tg",
                       "--alpha", "0", "--beta", "0", "--kmax", "6")
    assert code == 2
    assert "Inconclusive" in out


def test_classify_json_format(capsys):
    code, out, _ = run(capsys, "classify", "--symbol", "cayley", "--op", "Sg",
                       "--alpha", "0", "--beta", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["boundedness"]["tag"] == "Bounded"
    assert doc["compactness"]["tag"] == "NotCompact"


def test_parameter_violations_exit_one(capsys):
    code, _, _ = run(capsys, "classify", "--symbol", "log", "--op", "Tg",
                     "--alpha", "-1", "--beta", "0")
    assert code == 1
    code, _, _ = run(capsys, "classify", "--symbol", "log", "--op", "Tg",
                     "--alpha", "0", "--beta", "0", "--kmax", "99")
    assert code == 1
    code, _, _ = run(capsys, "report", "--angles", "100")
    assert code == 1
    # every angular sup is taken on the peak ray: classify has no angle grid
    code, _, err = run(capsys, "classify", "--symbol", "log", "--op", "Tg",
                       "--alpha", "0", "--beta", "0", "--angles", "64")
    assert code == 1 and "unrecognized arguments: --angles" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--symbol", "log", "--op", "Tg", "--alpha", "nan", "--beta", "0"),
    ("classify", "--symbol", "log", "--op", "Sg", "--alpha", "1", "--beta", "inf"),
    ("norm", "--symbol", "log", "--alpha", "inf"),
    ("norm", "--symbol", "log", "--alpha", "nan", "--of", "gprime"),
    ("opnorm", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "nan"),
    ("opnorm", "--symbol", "log", "--op", "Tg", "--alpha", "inf", "--beta", "0"),
    ("probe", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "inf"),
    ("probe", "--symbol", "log", "--op", "Sg", "--alpha", "nan", "--beta", "1"),
])
def test_non_finite_weight_exponent_is_a_usage_error(capsys, argv):
    # `norm --alpha inf` printed a number and exited 0; `classify --alpha nan`
    # exited 2 with an Inconclusive verdict
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "finite and nonnegative" in err and "Traceback" not in err


def test_non_finite_weight_exponent_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("alpha = inf\n")
    code, out, err = run(capsys, "norm", "--symbol", "log", "--config", str(cfg))
    assert code == 1
    assert out == "" and "finite and nonnegative" in err


def test_norm_command(capsys):
    code, out, _ = run(capsys, "norm", "--symbol", "cayley", "--alpha", "1")
    assert code == 0
    assert "at alpha=1: 2\n" in out


@pytest.mark.parametrize("argv,line,want", [
    (("--symbol", "cayley", "--alpha", "1"), 0, 2.0),
    (("--symbol", "identity", "--alpha", "0"), 0, 1.0),
    (("--symbol", "log", "--alpha", "0", "--bloch"), -1, 2.0),
], ids=["cayley", "identity", "log-bloch"])
def test_norm_reads_a_sup_attained_only_at_the_boundary(capsys, argv, line, want):
    """A sup approached only as ``r -> 1`` is read from the boundary profile:
    the ray maximiser stops at the grid's last radius ``1 - 2^-24``, which
    printed 1.9999999404 for cayley and log's Bloch norm and 0.999999940395
    for identity."""
    code, out, _ = run(capsys, "norm", *argv)
    assert code == 0
    value = float(out.splitlines()[line].rsplit(": ", 1)[1])
    assert want - 1e-12 <= value <= want


@pytest.mark.parametrize("name", symbol_names())
def test_norm_reads_its_sup_on_the_peak_ray(capsys, name):
    """The printed arg-max lies on the peak ray: on the real axis, and left of
    the origin for affine's g, whose ray is pi.  The value is never below the
    disk grid's, allowing 4 ulps (compared at the 12 digits printed, a
    rounding that keeps the order)."""
    g = get_symbol(name)
    for of, f in (("g", g.eval), ("gprime", g.deriv)):
        for alpha in ("0.5", "2"):
            code, out, _ = run(capsys, "norm", "--symbol", name, "--of", of, "--alpha", alpha)
            assert code == 0
            value = float(re.search(r"alpha=\S+: (\S+)\n", out).group(1))
            real, imag = (float(x) for x in
                          re.search(r"arg-max z = (\S+?)([+-][^i]+)i", out).groups())
            assert imag == 0.0
            assert real < 0.0 if (name, of) == ("affine", "g") else real >= 0.0
            grid = weighted_sup_norm(f, float(alpha))
            assert value >= float(f"{grid - 4.0 * np.spacing(grid):.12g}"), (of, alpha)


# boundary orders on the peak ray, kept here rather than read from the
# library: |h| grows like (1-r)^-p for h = g, g', g'' ("log" for log's g);
# every symbol not named stays bounded with all its derivatives
BOUNDARY_ORDERS = {"log": ("log", 1, 2), "koebe1": ("log", 1, 2), "koebe2": (1, 2, 3),
                   "cayley": (1, 2, 3), "koebe3": (2, 3, 4)}


def _diverges(order, alpha):
    """Whether ``sup (1-r^2)^alpha |h|`` is infinite for ``|h|`` of that order."""
    return alpha == 0.0 if order == "log" else order > alpha


def test_infinite_bloch_norm_reads_inf(capsys):
    # the Bloch norm of cayley, (1-r^2)|g'| = (1+r)/(1-r), printed the cap of
    # the last grid radius 1 - 2^-24 as "bloch norm: 33554432"
    code, out, _ = run(capsys, "norm", "--symbol", "cayley", "--alpha", "1", "--bloch")
    assert code == 0
    assert out.splitlines()[-1] == "bloch norm: inf  [divergent]"
    assert "[divergent]" not in out.splitlines()[1]  # (1-r^2)/|1-z| stays below 2


@pytest.mark.parametrize("name", symbol_names())
def test_norm_reads_divergence_from_the_boundary_order(capsys, name):
    """A sup that the slope rule reads divergent on the boundary profile
    prints inf and ``[divergent]``, on the value (arg-max) line or the Bloch
    line, exactly where the symbol's boundary order makes it infinite."""
    orders = BOUNDARY_ORDERS.get(name, (0, 0, 0))
    for of, (order, d_order) in (("g", orders[:2]), ("gprime", orders[1:])):
        for alpha in (0.0, 0.25, 0.5, 1.0, 2.0, 3.7):
            code, out, _ = run(capsys, "norm", "--symbol", name, "--of", of,
                               "--alpha", str(alpha), "--bloch")
            value, argmax, bloch = out.splitlines()
            assert code == 0
            want = _diverges(order, alpha)
            assert value.endswith(": inf") == argmax.endswith("  [divergent]") == want, \
                (of, alpha)
            want = _diverges(d_order, 1.0)
            assert bloch.endswith("inf  [divergent]") == want, of


def test_opnorm_command(capsys):
    code, out, _ = run(capsys, "opnorm", "--symbol", "identity", "--op", "Tg",
                       "--alpha", "0", "--beta", "0")
    assert code == 0
    assert "lower bound" in out and "upper bound" in out
    code, out, _ = run(capsys, "opnorm", "--symbol", "cayley", "--op", "Sg",
                       "--alpha", "0", "--beta", "1")
    assert code == 0  # no split bound for the companion operator


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["-inf", "-1e400", "inf", "nan", "0", "-0", "1", "1.5"])
def test_opnorm_cut_radius_is_checked_at_parse_time(tmp_path, monkeypatch, capsys,
                                                     source, value):
    # `opnorm --t0=-inf` ran the whole lower-bound battery, then ended in an
    # OverflowError traceback in the split bound
    from volterra import cli

    def never(*args, **kwargs):
        raise AssertionError("the battery ran with a bad cut radius")
    monkeypatch.setattr(cli, "lower_bound_details", never)
    argv = ("opnorm", "--symbol", "identity", "--op", "Tg", "--alpha", "0", "--beta", "0")
    if source == "flag":
        argv = argv + (f"--t0={value}",)
    else:
        cfg = tmp_path / "cut.cfg"
        cfg.write_text(f"t0 = {value}\n")
        argv = argv + ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--t0" in errors[0]


FLOAT_SPELLINGS = ["nan", "inf", "-inf", "1e400", "-1e400", "-0", "0"]
CELL = ("--symbol", "identity", "--op", "Tg")
# each command with cheap settings, and its float options with valid values
FLOAT_COMMANDS = [
    (("classify",) + CELL + ("--kmax", "4"), {"alpha": "0", "beta": "0"}),
    (("norm", "--symbol", "identity"), {"alpha": "0"}),
    (("opnorm",) + CELL, {"alpha": "0", "beta": "0", "t0": "0.5"}),
    (("probe",) + CELL + ("--nmax", "16"), {"alpha": "0", "beta": "0"}),
    (("lemma2", "--samples", "10", "--theta-count", "1"), {"gamma": "0.785", "eta": "1.571"}),
]


@pytest.mark.parametrize("value", FLOAT_SPELLINGS)
@pytest.mark.parametrize("argv, floats, option",
                         [(argv, floats, opt) for argv, floats in FLOAT_COMMANDS for opt in floats],
                         ids=[f"{argv[0]}-{opt}" for argv, floats in FLOAT_COMMANDS
                              for opt in floats])
def test_float_options_fuzz_without_traceback(capsys, argv, floats, option, value):
    spelled = [f"--{opt}={value if opt == option else valid}" for opt, valid in floats.items()]
    code, _, err = run(capsys, *argv, *spelled)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_probe_command_formats(capsys):
    code, out, _ = run(capsys, "probe", "--symbol", "identity", "--op", "Tg",
                       "--alpha", "0", "--beta", "0", "--nmax", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0] == pytest.approx(0.5, abs=1e-6)
    code, out, _ = run(capsys, "probe", "--symbol", "identity", "--op", "Tg",
                       "--alpha", "0", "--beta", "0", "--nmax", "16", "--format", "csv")
    assert out.splitlines()[0] == "n,value"


def test_lemma2_command(capsys):
    code, out, _ = run(capsys, "lemma2", "--gamma", "0.785", "--eta", "1.571",
                       "--samples", "500,1000,2000", "--theta-count", "4")
    assert code == 0
    assert "status: ok" in out
    assert "exact density bound: 1.510619342\n" in out
    assert "density bound estimate at 2000 samples: " in out
    assert "(relative gap " in out
    sweep = re.search(r"^worst residuals over 4 angles: center (\S+), vertex solve (\S+), "
                      r"vertex approach (\S+)$", out, re.M)
    assert all(float(x) < bound for x, bound in zip(sweep.groups(), (1e-10, 1e-10, 1e-3)))
    code, _, err = run(capsys, "lemma2", "--gamma", "1.6", "--eta", "1.5")
    assert code == 1


def test_lemma2_estimates_each_count_once(monkeypatch, capsys):
    # the estimate is bit-identical at every bisector angle, yet the rotation
    # sweep made one per angle: 4,096 angles at 10^5 samples took 13 s
    from volterra import cli
    counts = []

    def spy(gamma, eta, n, **kwargs):
        counts.append(n)
        return estimate(gamma, eta, n, **kwargs)
    estimate = cli.estimate_density_bound
    monkeypatch.setattr(cli, "estimate_density_bound", spy)
    code, out, _ = run(capsys, "lemma2", "--gamma", "0.785", "--eta", "1.571",
                       "--samples", "500,1000,2000", "--theta-count", "64")
    assert code == 0 and "worst residuals over 64 angles: " in out
    assert counts == [500, 1000, 2000]


def test_lemma2_fails_when_an_estimate_exceeds_the_exact_bound(monkeypatch, capsys):
    from volterra import cli
    from volterra.sector import estimate_density_bound
    est = estimate_density_bound(0.785, 1.571, 1000)
    # an estimate more than the allowed ulps above the bound is a failure
    monkeypatch.setattr(cli, "density_bound",
                        lambda gamma, eta: est - (cli.DENSITY_BOUND_SLACK_ULPS + 1) * math.ulp(est))
    code, out, _ = run(capsys, "lemma2", "--gamma", "0.785", "--eta", "1.571",
                       "--samples", "1000", "--theta-count", "1")
    assert code == 1
    assert "status: FAILED" in out
    monkeypatch.setattr(cli, "density_bound",
                        lambda gamma, eta: est - cli.DENSITY_BOUND_SLACK_ULPS * math.ulp(est))
    code, out, _ = run(capsys, "lemma2", "--gamma", "0.785", "--eta", "1.571",
                       "--samples", "1000", "--theta-count", "1")
    assert code == 0
    assert "status: ok" in out


@pytest.mark.parametrize("option, value", [("--theta-count", "0"), ("--theta-count", "-3"),
                                           ("--samples", "0"), ("--samples", "-5"),
                                           ("--samples", "1000,0,2000")])
def test_lemma2_counts_must_be_positive(capsys, option, value):
    # these failed inside the sweep with "max() arg is an empty sequence" or a
    # zero-size reduction instead of naming the option
    code, out, err = run(capsys, "lemma2", "--gamma", "0.785", "--eta", "1.571", option, value)
    assert code == 1
    assert out == ""
    assert f"argument {option}: need a positive integer" in err


@pytest.mark.parametrize("argv, message", [
    (("report", "--degree", "-1"), "argument --degree: need a positive integer"),
    (("report", "--degree", "0"), "argument --degree: need a positive integer"),
    (("report", "--probe-nmax", "5"), "argument --probe-nmax: probe traces need at least 16"),
    (("report", "--probe-nmax", "-3"), "argument --probe-nmax: probe traces need at least 16"),
    (("probe", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "1", "--nmax", "5"),
     "argument --nmax: probe traces need at least 16"),
    (("probe", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "1", "--nmax", "-3"),
     "argument --nmax: probe traces need at least 16"),
    # a degree below the schema's minimum of 8 wrote a JSON report that failed it
    (("report", "--degree", "7"), "argument --degree: the report needs a degree of at least 8"),
])
def test_report_and_probe_counts_are_checked_at_parse_time(capsys, argv, message):
    # `report --degree -1` failed in the battery with "battery entries need a
    # positive source norm", `--degree 0` ran the whole report, and a short
    # `--nmax` failed with "n_max must be at least 16", naming no option
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err and "Traceback" not in err


def test_report_degree_in_config_file_is_checked(tmp_path, capsys):
    cfg = tmp_path / "report.cfg"
    cfg.write_text("degree = 0\n")
    code, out, err = run(capsys, "report", "--config", str(cfg))
    assert code == 1
    assert out == "" and "argument --degree: need a positive integer" in err


OVERSIZED_COUNTS = [
    (("report",), "angles", "1073741824",
     "argument --angles: angle count must be a power of two in [64, 8192]"),
    (("report",), "angles", "16384",
     "argument --angles: angle count must be a power of two in [64, 8192]"),
    (("lemma2", "--gamma", "0.5", "--eta", "1.0"), "samples", "1000,1000000000000",
     "argument --samples: each sample count must be at most 10000000"),
    (("lemma2", "--gamma", "0.5", "--eta", "1.0"), "theta-count", "1000000000",
     "argument --theta-count: need at most 4096, got 1000000000"),
    (("report",), "degree", "1000000000", "argument --degree: need at most 4096, got 1000000000"),
    (("report",), "probe-nmax", "1025", "argument --probe-nmax: need at most 1024, got 1025"),
    (("probe", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "1"),
     "nmax", "1000000000", "argument --nmax: need at most 1024, got 1000000000"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv, key, value, message", OVERSIZED_COUNTS,
                         ids=["report-angles-huge", "report-angles", "lemma2-samples",
                              "lemma2-theta-count", "report-degree", "report-probe-nmax",
                              "probe-nmax"])
def test_oversized_counts_are_usage_errors(tmp_path, monkeypatch, capsys, source,
                                           argv, key, value, message):
    # `--angles 1073741824` and `lemma2 --samples 1000000000000` ended
    # in an uncaught allocation error (8 GiB and 7.3 TiB arrays); the other
    # counts parsed at any size and ran for hours (lemma2 then computed one
    # density estimate per angle); the command itself must not start
    from volterra import cli

    def never(args):
        raise AssertionError("the command ran with an oversized count")
    monkeypatch.setitem(cli._COMMANDS, argv[0], never)
    if source == "flag":
        argv = argv + (f"--{key}", value)
    else:
        cfg = tmp_path / "counts.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = argv + ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert "Traceback" not in err
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert message in lines[-1]


@pytest.mark.parametrize("argv", [
    ("classify", "--symbol", "identity", "--op", "Tg", "--alpha", "0", "--beta", "0",
     "--kmax", "4"),
    ("lemma2", "--gamma", "0.5", "--eta", "1.0", "--samples", "10000000",
     "--theta-count", "4096"),
    ("report", "--degree", "4096", "--probe-nmax", "1024", "--angles", "8192"),
    ("probe", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "1", "--nmax", "1024"),
])
def test_largest_counts_still_parse(monkeypatch, argv):
    from volterra import cli
    seen = []
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: seen.append(args) or 0)
    assert main(list(argv)) == 0
    assert len(seen) == 1


OUTPUT_COMMANDS = {
    "classify": ("classify", "--symbol", "identity", "--op", "Tg", "--alpha", "0",
                 "--beta", "0", "--kmax", "8"),
    "norm": ("norm", "--symbol", "cayley", "--alpha", "1"),
    "report": ("report", "--format", "json"),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_unwritable_output_is_an_error_line(tmp_path, monkeypatch, capsys, full_report,
                                            command, target, source):
    # writing to a missing directory or to a directory ended in a
    # FileNotFoundError or IsADirectoryError traceback; for report only after
    # the whole report had been computed, so here it returns the shared one
    from volterra import cli
    monkeypatch.setattr(cli, "build_report", lambda cfg: full_report[0])
    output = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
    argv = OUTPUT_COMMANDS[command]
    if source == "flag":
        argv = argv + ("--output", str(output))
    else:
        cfg = tmp_path / "output.cfg"
        cfg.write_text(f"output = {output}\n")
        argv = argv + ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(output) in lines[0]


def test_probe_accepts_the_shortest_trace(capsys):
    code, out, _ = run(capsys, "probe", "--symbol", "log", "--op", "Tg", "--alpha", "0",
                       "--beta", "1", "--nmax", "16", "--format", "json")
    assert code == 0
    assert json.loads(out)["indices"] == list(range(1, 17))


def test_list_command(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = {s["name"] for s in doc["symbols"]}
    assert {"zero", "identity", "log", "cayley", "lacunary"} <= names
    assert len(doc["ground_truth"]) >= 10


def test_config_file_presets_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "starved.cfg"
    cfg.write_text("# starve the ladder\nkmax = 6\n")
    code, _, _ = run(capsys, "classify", "--symbol", "identity", "--op", "Tg",
                     "--alpha", "0", "--beta", "0", "--config", str(cfg))
    assert code == 2  # file value applied
    code, _, _ = run(capsys, "classify", "--symbol", "identity", "--op", "Tg",
                     "--alpha", "0", "--beta", "0", "--config", str(cfg),
                     "--kmax", "40")
    assert code == 0  # explicit flag wins


def test_config_equals_form_is_applied(tmp_path, capsys):
    cfg = tmp_path / "starved.cfg"
    cfg.write_text("kmax = 4\n")
    cell = ("classify", "--symbol", "identity", "--op", "Tg", "--alpha", "0", "--beta", "0")
    assert run(capsys, *cell)[0] == 0
    assert run(capsys, *cell, "--config", str(cfg))[0] == 2
    assert run(capsys, *cell, f"--config={cfg}")[0] == 2


def test_config_without_value_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--symbol", "identity", "--op", "Tg",
                       "--alpha", "0", "--beta", "0", "--config")
    assert code == 1
    assert "--config" in err
    assert "Traceback" not in err


def test_config_value_is_checked_like_a_flag(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kmax = 100\n")
    for flag in ((), ("--kmax", "40")):  # checked even where a flag overrides it
        code, _, err = run(capsys, "classify", "--symbol", "identity", "--op", "Tg",
                           "--alpha", "0", "--beta", "0", "--config", str(cfg), *flag)
        assert code == 1
        assert "kmax must lie in [4, 40]" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv, key, value, runner", [
    (("report",), "format", "xml", "build_report"),
    (("norm", "--symbol", "cayley", "--alpha", "1"), "of", "xyz", "ray_argmax"),
], ids=["report-format", "norm-of"])
def test_choice_in_config_file_is_checked_like_a_flag(tmp_path, monkeypatch, capsys,
                                                      argv, key, value, runner, source):
    # argparse checks `choices` only for command-line values, and config-file
    # values arrive as defaults: `format = xml` printed the text report and
    # `of = xyz` the norm of g', both with exit code 0
    from volterra import cli

    def never(*args, **kwargs):
        raise AssertionError(f"{runner} ran with {key} = {value}")
    monkeypatch.setattr(cli, runner, never)
    if source == "flag":
        argv = argv + (f"--{key}", value)
    else:
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = argv + ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and f"--{key}" in err and value in err and "Traceback" not in err


# each subcommand takes only the formats it writes; these were accepted and
# ignored: classify and list printed text or JSON, the others always text
@pytest.mark.parametrize("argv", [
    ("classify", "--symbol", "log", "--op", "Tg", "--alpha", "0", "--beta", "1",
     "--format", "csv"),
    ("list", "--format", "csv"),
    ("norm", "--symbol", "cayley", "--alpha", "1", "--format", "json"),
    ("opnorm", "--symbol", "log", "--op", "Tg", "--alpha", "1", "--beta", "2",
     "--format", "json"),
    ("lemma2", "--gamma", "0.785", "--eta", "1.571", "--format", "text"),
], ids=lambda argv: argv[0])
def test_format_a_subcommand_does_not_write_is_a_usage_error(monkeypatch, capsys, argv):
    from volterra import cli
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: pytest.fail("command ran"))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "--format" in err and "Traceback" not in err


def test_format_key_in_config_is_ignored_where_there_is_no_format(tmp_path, capsys):
    cfg = tmp_path / "format.cfg"
    cfg.write_text("format = json\n")
    cell = ("norm", "--symbol", "cayley", "--alpha", "1")
    assert run(capsys, *cell, "--config", str(cfg)) == run(capsys, *cell)


@pytest.mark.parametrize("cell", [("log", "1", "2"), ("log", "0", "1"), ("cayley", "0", "1")])
def test_opnorm_prints_a_cut_that_it_accepts(capsys, cell):
    # the best cut is the rung 1 - 2^-39, which "{:g}" printed as 1, a
    # value --t0 rejects
    symbol, alpha, beta = cell
    argv = ("opnorm", "--symbol", symbol, "--op", "Tg", "--alpha", alpha, "--beta", beta)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    bound, t0 = re.search(r"split upper bound: (\S+)  \(cut t0=(\S+)\)", out).groups()
    code, out, err = run(capsys, *argv, "--t0", t0)
    assert code == 0, err
    assert f"split upper bound at t0={t0}: {bound}\n" in out


CONFIG_KEYS = ("symbol", "op", "alpha", "beta", "kmax", "angles", "degree", "probe-nmax",
               "probe_nmax", "of", "bloch", "t0", "nmax", "gamma", "eta", "theta-count",
               "samples", "format", "output", "config", "command", "help", "version")
CONFIG_VALUES = ("", "log", "identity", "nosuch", "Tg", "Sg", "0", "1", "-1", "0.5", "64",
                 "1e400", "nan", "inf", "0x10", "json", "csv", "xml", "text", "g", "gprime",
                 "true", "yes", "1,2", ",", "99999999999999999999")
CONFIG_TOKENS = st.one_of(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES),
                          st.sampled_from(("=", "#", " ", "\t", "-", "\r")),
                          st.text(max_size=4))
CONFIG_TEXT = st.lists(st.lists(CONFIG_TOKENS, max_size=6).map("".join), max_size=6).map(
    "\n".join)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(("classify", "report", "norm", "opnorm", "probe", "lemma2",
                                "list")),
       text=CONFIG_TEXT, raw=st.binary(max_size=3), at=st.integers(min_value=0))
def test_fuzzed_config_files_exit_cleanly(tmp_path, monkeypatch, command, text, raw, at):
    """Config text of option keys, values, ``=`` and ``#`` in any position and
    stray bytes (often not UTF-8) parses to a stubbed command or to one usage
    error: exit 0 or 1, never a traceback.  Each example rewrites one file."""
    from volterra import cli
    monkeypatch.setattr(cli, "_COMMANDS", {name: lambda args: 0 for name in cli._COMMANDS})
    data = text.encode()
    data = data[:at % (len(data) + 1)] + raw + data[at % (len(data) + 1):]
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg)])
    assert code in (0, 1), (code, data)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().strip(), data


@pytest.mark.parametrize("with_config", [False, True])
def test_main_builds_one_parser(tmp_path, monkeypatch, capsys, with_config):
    # reading the config file cost a second parser build per command
    from volterra import cli
    builds = []

    def spy(*args):
        builds.append(args)
        return build(*args)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", spy)
    cfg = tmp_path / "kmax.cfg"
    cfg.write_text("kmax = 40\n")
    extra = ("--config", str(cfg)) if with_config else ()
    code, _, _ = run(capsys, "classify", "--symbol", "identity", "--op", "Tg", "--alpha", "0",
                     "--beta", "0", *extra)
    assert code == 0
    assert len(builds) == 1


def test_config_presets_a_required_option(tmp_path, capsys):
    cfg = tmp_path / "symbol.cfg"
    cfg.write_text("symbol = identity\n")
    cell = ("classify", "--op", "Tg", "--alpha", "0", "--beta", "0")
    flag = run(capsys, *cell, "--symbol", "identity")
    assert flag[0] == 0
    assert run(capsys, *cell, "--config", str(cfg))[:2] == flag[:2]


def test_required_option_missing_from_flags_and_file(tmp_path, capsys):
    cfg = tmp_path / "other.cfg"
    cfg.write_text("kmax = 40\n")
    cell = ("classify", "--op", "Tg", "--alpha", "0", "--beta", "0")
    for extra in ((), ("--config", str(cfg))):
        code, _, err = run(capsys, *cell, *extra)
        assert code == 1
        assert "the following arguments are required: --symbol" in err


def test_report_builds_one_engine_per_tg_row(monkeypatch):
    from volterra import criteria, report
    from volterra.operators import OperatorKind
    built, per_row = [], []
    real_engine, real_row = criteria._ladder_engine, report._row_result

    def engine(*args):
        built.append(args[1])
        return real_engine(*args)

    def row(r, *args):
        before = len(built)
        out = real_row(r, *args)
        per_row.append((r.operator, len(built) - before))
        return out
    monkeypatch.setattr(criteria, "_ladder_engine", engine)
    monkeypatch.setattr(report, "_row_result", row)
    monkeypatch.setenv(report.WORKERS_ENV, "1")
    build_report(ReportConfig(k_max=6, probe_n_max=16, degree=64, n_angles=128))
    tg_counts = [n for op, n in per_row if op is OperatorKind.Tg]
    assert tg_counts and set(tg_counts) == {1}
    assert all(n <= 1 for _, n in per_row)


def test_csv_header_is_frozen():
    assert CSV_HEADER == ["symbol", "op", "alpha", "beta", "verdict", "value",
                          "lower", "upper", "probe_exp", "agree"]
    doc = {"rows": [], "summary": {"rows": 0, "matches": 0,
                                   "disagreements": [], "inconclusive": []}}
    assert to_csv(doc).splitlines()[0] == ",".join(CSV_HEADER)


def test_starved_report_goes_inconclusive_not_wrong():
    doc = build_report(ReportConfig(k_max=6, probe_n_max=16, degree=64, n_angles=128))
    assert report_exit_code(doc) == 2
    assert doc["summary"]["disagreements"] == []
    assert doc["summary"]["inconclusive"]


def test_report_document_validates_against_schema(full_report):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources
    doc, _ = full_report
    schema = json.loads(
        resources.files("volterra").joinpath("data/report_schema.json").read_text())
    jsonschema.validate(doc, schema)
    # JSON serialization round-trips
    assert json.loads(to_json(doc)) == doc


def test_smallest_accepted_degree_writes_a_valid_report(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources
    code, out, err = run(capsys, "report", "--degree", "8", "--kmax", "6", "--probe-nmax", "16",
                         "--format", "json")
    assert code in (0, 2), err
    schema = json.loads(
        resources.files("volterra").joinpath("data/report_schema.json").read_text())
    jsonschema.validate(json.loads(out), schema)


def test_report_csv_rows_align_with_document(full_report):
    doc, _ = full_report
    lines = to_csv(doc).splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(doc["rows"])
    first = lines[1].split(",")
    assert first[0] == doc["rows"][0]["symbol"]
    assert first[4] == (doc["rows"][0]["boundedness"]["tag"] + "+"
                        + doc["rows"][0]["compactness"]["tag"])
