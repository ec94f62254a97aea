"""End-to-end runs of the command-line entry point."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyadicweights.cli import main, parse_config_text, write_csv
from oracles import fmt_join_csv

CONFIGS = Path(__file__).parents[1] / "configs"

# Subcommand, sha256 of results.csv, exit code and sha256 of summary.json for
# every shipped config.  A refactor keeps these bytes and this code; a change
# that moves a reported number or verdict updates the pin and states the old
# and new values.
CONFIG_RUNS = {
    "a1_battery.cfg": (
        "verify-cddd",
        "fa1c2bd24da84061e41f79e419a7228cb1ff3abe5618ae0dbc92334514768fc1",
        0,
        "3b94f295ce1a54210209646cfea03d4bb16ee63375f7141b66742f3805bda4c2",
    ),
    "ap_sharpness.cfg": (
        "sharpness",
        "9d98cc58867146d09acca6fa7fa64085b2714b1113b4e987357fa69cd8ee627f",
        0,
        "e4bfa5e83a5592c22b12fe3f008b6fd2a1970e9be9fc92d10ca774270a5eb326",
    ),
    "linear_quotient.cfg": (
        "verify-bsvy",
        "23ef43ce4ed0a1a563ac4ce12b890560c89ab7427493ab16515c0f5a67525206",
        0,
        "d1a7abac69f801bc5c6f65710a66d0c4cedcc6926ae691d2ee998c437be26f85",
    ),
}


# The same for runs given by their arguments alone.
ARGV_RUNS = {
    "classify-weight": (
        [
            "classify-weight",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
            "--set", "depths=[6, 12]",
            "--set", "with_quotient=false",
        ],
        "607b7cf0b3f381a762ba0e99a8ff13d84232e2d2eeea3417700b69f852bdece3",
        2,
        "62f0022dc422898820e6311c20bbe622ed2b0bb68cb5ec6e94f5551069bad220",
    ),
    "sharpness-betalimit": (
        ["sharpness", "--case", "betalimit"],
        "8f8d2a50f22b2b6e01fda38260f1f4a5063f8aa4efdcb0c65d37a638f37ad269",
        0,
        "8cb283a39bde6cd95d37f28e8083387a20fc16fd6308999099f2568c62e77554",
    ),
    "sharpness-a1": (
        ["sharpness", "--case", "a1"],
        "30cda39c811f9770d8d8c0b74911caebe3849a894ffddeb0bc6d7df0d1343c44",
        0,
        "24395618514e6bcdfa8c8c24ff9095caee685e1a94d93f9307802d4ccd1ccde4",
    ),
    "mean-functional": (
        ["mean-functional"],
        "a536269f2dc92c22f996b51872ec0b99e91a69e75881b0fd435213888ca3d04c",
        0,
        "cdb032d34f9e9150423141fa26c06dc3d0a44f7a02b7ddb8de24e7152fdd7bb3",
    ),
    "classify-weight-three-depths": (
        [
            "classify-weight",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
            "--set", "depths=[6, 12, 24]",
            "--set", "with_quotient=false",
        ],
        "5a79b08d2b75d8b308006964022c5ddbca8bea160c540a832c6cc4c0bf85a5db",
        2,
        "28cfb07042b7aafa9b59a648779399d36a856a2f1e560fb300564f7d9a956f04",
    ),
    # the quotient member runs diffquot_functionals under a power weight:
    # every depth's probe in one lock-step outer quadrature over the
    # (f, lambda) problems, the stacked exact kernel and the piece table
    "classify-weight-quotient": (
        [
            "classify-weight",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
            "--set", "depths=[6, 12]",
            "--set", "with_quotient=true",
        ],
        "d827269632f07ce14eb8ef2aaed3730da40c7e2ace2410cf92d3749651c955fc",
        2,
        "ce2067fd9ba84f9101f660d58b209e83d0a70ebc7f620a5b4ec1d69dbd4b77b5",
    ),
    # the benchmark's classify input: default depths 6 ... 48 with the
    # quotient member, at centre 0 and off centre (3/16, the bench's seed
    # 1), where the step probes take two centres
    "classify-weight-bench": (
        [
            "classify-weight",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
        ],
        "bc480e0171516da2847631398872cc0fb745ebc7f742bce69bcfefa3c4d5e9fd",
        2,
        "7ad8e2805a34511e3fbbb4cfd5aa5819966c5bfee2ba73ebb017bf684421c876",
    ),
    "classify-weight-bench-off-centre": (
        [
            "classify-weight",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
            "--set", "weight.center=0.1875",
        ],
        "6fbbd6c20575deeb25dc799447116153226bf6bef7bca741b032b85e3e56af57",
        2,
        "3320876ddfb35c7f9e49074c8804bf078fb26344eec9215b91856b65b4b434c5",
    ),
    # |x|^(1/2) is not A_1: the constant estimate is unbounded, so each check
    # is uncertified and fails against the bare norm
    "mean-functional-unbounded": (
        [
            "mean-functional",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
        ],
        "3b70508333d7c19cc47f2495b45d694dbd97b5017d420bbf6a2ad2deb3f51dd0",
        2,
        "bc1c6d2782efce51ecef79bc999f50695ad7985e199c24ddda5a11f3e38ca5b1",
    ),
    "wavelet-check-unbounded": (
        [
            "wavelet-check",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
        ],
        "3b1a5e992a2ee85ea2f015672c97b81f312f044654505b7f342eda35ebd6dbe7",
        2,
        "5edae592d9f93179834e302c8c4eb34695470b6e0916ca06cbafad6bfeb3035d",
    ),
    "verify-cddd-unbounded": (
        [
            "verify-cddd",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=0.5",
            "--set", "p=1",
        ],
        "e4416c8fa41560e432a0063da6d56040603a9a68696e66d8bea7e4379e23ad38",
        2,
        "5d8393565925087e96fe82ca360d99ebae2548de1a10e93dd12de83d7a330242",
    ),
    # the a1 window under a cubic-edged plateau: most cubes lie inside one
    # linear piece, the rest meet a breakpoint or a cubic piece
    "verify-cddd-smoothed": (
        [
            "verify-cddd",
            "--config", str(CONFIGS / "a1_battery.cfg"),
            "--set", "function.name=smoothed_indicator",
        ],
        "1bbb5a63b7ca92fc4e0c7576f6f9cf62e01b7bb582e9d04ef6013235b56a7caa",
        0,
        "a7cf2b7059a32143a73a4073b34d7e4ad70fbb471d55f83e20e9cc1a7f992452",
    ),
    # the a1 window under a ramp of non-dyadic slope
    "verify-cddd-ramp": (
        [
            "verify-cddd",
            "--config", str(CONFIGS / "a1_battery.cfg"),
            "--set", "function.name=linear_ramp",
            "--set", "function.slope=0.3",
        ],
        "1ebfba6725eb05ff61ba50766588dacb11eaaf70a645218ebb340128b26a3f2f",
        0,
        "bef21c78550564fdd68f3bd6838d9a392c0d68552b3687f880444ccf0e738600",
    ),
    # gamma = -1.2 on the tent: every member run past the last kink radius
    # reaches to infinity, taken in closed form, with memberless nodes
    "verify-bsvy-far-tail": (
        [
            "verify-bsvy",
            "--set", "function.name=tent",
            "--set", "grid.lo=-2",
            "--set", "grid.hi=2",
            "--set", "lambda_lo=0.1",
            "--set", "lambda_hi=30.0",
            "--set", "lambda_count=3",
            "--gamma", "-1.2",
        ],
        "280a7184f6932bffd340661d24ac349741ba78ce1b6d69cea39e9700297a9942",
        2,
        "f02ba644e553f2bd796088a89cce1bc4f38c2e7b5f7c4eb569b188b38763fca9",
    ),
    "ap-constant": (
        [
            "ap-constant",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=-0.5",
            "--p", "1.0",
        ],
        "a40dad83966eeb9c72a69e79fec31915e65c1b83f3582828d19df23bbc2839d8",
        0,
        "75361b7a86bed69c8385da823b38387d7a727cf9f141a4af99481202adcd52cb",
    ),
    # |x - 1/2| at p = 2: the dual power e = -1 takes the log form, and the
    # estimate is unbounded
    "ap-constant-unbounded": (
        [
            "ap-constant",
            "--set", "p=2",
            "--set", "weight.kind=power",
            "--set", "weight.exponent=1.0",
            "--set", "weight.center=0.5",
        ],
        "b264602e787ee7535b8ae45249c3c568f368aec10b8b1ca48be26e79c4b6670f",
        0,
        "d2ffc17b23b570f2b1c1d2abc9d104238df0bb141387fe0d52972ae9f0c4c037",
    ),
    "good-cubes": (
        ["good-cubes", "--set", "trials=20"],
        "bd43079ceee05c643d6f3fb42f73eca95b0eb29a7929c7bbbc5fa9a946af305a",
        0,
        "d546e2a8d0accf3b614496b4a15fafb4c1185d8bc46c675182caf00bdac511ce",
    ),
}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def sha256(path) -> str:
    return hashlib.sha256(read(path)).hexdigest()


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def load_strict(path) -> dict:
    """summary.json parsed as strict JSON: NaN and Infinity are errors."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_config_results_csv_digest(tmp_path, name):
    subcommand, digest, code, summary_digest = CONFIG_RUNS[name]
    got = main([subcommand, "--config", str(CONFIGS / name), "--out", str(tmp_path)])
    assert sha256(tmp_path / "results.csv") == digest
    assert got == code
    assert sha256(tmp_path / "summary.json") == summary_digest
    load_strict(tmp_path / "summary.json")


def test_a1_battery_digest_is_the_benchmark_reference():
    # the cddd-exact benchmark checks its seed-0 results.csv against this
    # reference; a re-pin here must re-pin it too, or the benchmark fails
    ref = json.loads((CONFIGS.parent / "bench" / "reference.json").read_text())
    assert CONFIG_RUNS["a1_battery.cfg"][1] == ref["cddd-exact"]["0"]["csv_sha256"]


@pytest.mark.parametrize("function", ["tent", "smoothed_indicator"])
def test_verify_cddd_takes_no_per_cube_scalar_path(tmp_path, monkeypatch, function):
    # the window arrays come from NumPy blocks, never axis_interval, and the
    # masses from a few array passes of the power kernel: the window, the
    # probes of the constant estimate and the linear pieces of the gradient
    # norm take one kernel call each, against 6,158 window cubes and
    # hundreds of probes
    from dyadicweights import grid, oscillation, weights

    calls = {"axis_interval": 0, "kernel": 0, "probes": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def ap_constant(w, p, probes, _orig=oscillation.ap_constant):
        calls["probes"] += len(probes)
        return _orig(w, p, probes)

    monkeypatch.setattr(grid, "axis_interval", counted("axis_interval", grid.axis_interval))
    monkeypatch.setattr(weights, "power_integrals", counted("kernel", weights.power_integrals))
    monkeypatch.setattr(oscillation, "ap_constant", ap_constant)
    argv = ["verify-cddd", "--config", str(CONFIGS / "a1_battery.cfg")]
    argv += ["--set", f"function.name={function}", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert calls["axis_interval"] == 0
    assert calls["probes"] > 100
    assert 0 < calls["kernel"] <= 3


@pytest.mark.parametrize("name", sorted(ARGV_RUNS))
def test_argv_results_csv_digest(tmp_path, name):
    argv, digest, code, summary_digest = ARGV_RUNS[name]
    got = main([*argv, "--out", str(tmp_path)])
    assert sha256(tmp_path / "results.csv") == digest
    assert got == code
    assert sha256(tmp_path / "summary.json") == summary_digest
    load_strict(tmp_path / "summary.json")


def test_write_csv_bytes_match_the_fmt_join(tmp_path):
    header = ("flag", "npflag", "n", "npn", "x", "npx", "x32", "text", "none", "frac", "mixed")
    rows = [
        (True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(1 / 3), np.float32(0.1),
         "a b", None, Fraction(1, 3), 1),
        (False, np.bool_(True), -(2**70), np.int64(0), math.inf, -math.inf, np.float32(-0.0),
         "", None, Fraction(-5, 2), 2.5),
        (True, np.bool_(True), 0, np.int64(2**62), math.nan, np.float64(-0.0), np.float32(math.inf),
         "%d", None, Fraction(7), 4),
        [False, np.bool_(False), 1, np.int64(1), -0.0, np.float64(5e-324), np.float32(math.nan),
         "z", None, Fraction(0), "text"],
        (True, np.bool_(False), 5, np.int64(5), 5e-324, np.float64(1e300), np.float32(3.5),
         "q", None, Fraction(1, 7), None),
        (True, np.bool_(False), 6, np.int64(6), 1.0, np.float64(2.0), np.float32(0.5),
         "r", None, Fraction(2), np.float64(0.1)),
    ]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, rows)
    assert read(path) == fmt_join_csv(header, rows)


@pytest.mark.parametrize(
    "subcommand", ["verify-cddd", "verify-bsvy", "mean-functional", "wavelet-check"]
)
def test_zero_function_passes_with_ratio_zero(tmp_path, subcommand):
    # both sides of every inequality are 0: 0 <= C * 0 holds, ratio 0
    code = main([subcommand, "--set", "function.name=constant", "--out", str(tmp_path)])
    summary = load_strict(tmp_path / "summary.json")
    assert (summary["verdict"], summary["ratio"], code) == ("pass", 0.0, 0)
    if subcommand == "verify-bsvy":
        assert summary["details"]["tail_ratio"] == 0.0


@pytest.mark.parametrize(
    "sets",
    [
        ["weight.kind=product", "weight.factors=[a,b]"],
        ["function.name=tensor_tent"],
        ["weight.kind=constant", "weight.n=2"],
    ],
    ids=["product-factors", "tensor-function", "two-dimensional-weight"],
)
def test_inputs_off_the_line_exit_one_with_one_error_line(tmp_path, capsys, sets):
    # a flat config cannot nest factor specs (product is no config kind), and
    # the runners' windows are 1-D: each input is refused before any work,
    # not met by a traceback
    argv = ["verify-cddd", "--out", str(tmp_path)]
    for pair in sets:
        argv += ["--set", pair]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "xs, values",
    [
        ("[1,0,2]", "[1,2,3]"),
        ("[0,0,2]", "[1,2,3]"),
        ("[0,1,2]", "[1,2]"),
        ("[]", "[]"),
        ("5", "1"),
        ("[0,inf]", "[1,1]"),
        ("[0,1]", "[1,nan]"),
        ("[0,1]", "[1,-0.5]"),
    ],
    ids=[
        "unsorted", "repeated", "lengths", "empty", "scalar", "inf-knot", "nan-value",
        "negative-value",
    ],
)
def test_malformed_table_weight_is_a_bad_weight_spec(tmp_path, capsys, xs, values):
    # knots np.interp cannot read are refused by the weight itself, before
    # any probe is formed: exit 1 and one error line
    argv = ["ap-constant", "--out", str(tmp_path), "--set", "weight.kind=table"]
    argv += ["--set", f"weight.xs={xs}", "--set", f"weight.values={values}"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad weight spec: table weight"), err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "sets",
    [
        ["weight.kind=constant", "weight.c={}"],
        ["weight.kind=power", "weight.exponent={}"],
        ["weight.kind=power", "weight.exponent=0.5", "weight.center={}"],
    ],
    ids=["c", "exponent", "center"],
)
def test_non_finite_weight_parameter_is_a_bad_weight_spec(tmp_path, capsys, sets, value):
    # a NaN or infinite parameter is refused by the weight itself: exit 1
    # and one error line, not a constant estimate of 0.0 from NaN ratios
    argv = ["ap-constant", "--out", str(tmp_path)]
    for pair in sets:
        argv += ["--set", pair.format(value)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad weight spec: "), err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "subcommand, key",
    [
        ("ap-constant", "p"),
        ("classify-weight", "p"),
        ("verify-cddd", "p"),
        ("verify-cddd", "beta"),
        ("mean-functional", "p"),
        ("mean-functional", "beta"),
        ("verify-bsvy", "p"),
        ("verify-bsvy", "q"),
        ("verify-bsvy", "gamma"),
        ("verify-bsvy", "lambda_lo"),
        ("verify-bsvy", "lambda_hi"),
        ("verify-bsvy", "tol"),
        ("sharpness", "p"),
    ],
)
def test_non_finite_functional_parameter_exits_one(tmp_path, capsys, subcommand, key, value):
    # the config class or kernel that reads the value refuses it by name:
    # exit 1 and one error line, not a silent verdict, a NumPy warning or a
    # math domain error
    assert main([subcommand, "--out", str(tmp_path), "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert f"{key} must be finite, got {value}" in err[0], err


def test_parse_config_text_sections_and_types():
    cfg = parse_config_text(
        """
        # comment
        [run]
        seed = 3
        [weight]
        kind = "power"
        exponent = -0.5
        [grid]
        shifts = [0, 1]
        flag = true
        """
    )
    assert cfg["run"]["seed"] == 3
    assert cfg["weight"]["kind"] == "power"
    assert cfg["weight"]["exponent"] == -0.5
    assert cfg["grid"]["shifts"] == [0, 1]
    assert cfg["grid"]["flag"] is True


def test_parse_config_rejects_garbage():
    from dyadicweights.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_config_text("[x]\nnot a pair\n")


def test_verify_oscillation_run(tmp_path):
    cfgfile = tmp_path / "battery.cfg"
    cfgfile.write_text(
        """
        [function]
        name = "tent"
        [weight]
        kind = "constant"
        c = 1.0
        [grid]
        lo = -4
        hi = 4
        j_min = -4
        j_max = 2
        [functional]
        p = 1.0
        beta = 2.0
        """
    )
    out = tmp_path / "out"
    code = main(["verify-cddd", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["verdict"] == "pass"
    assert summary["sup"] > 0
    assert "inputs" in summary and "truncation" in summary
    header = read(out / "results.csv").decode().splitlines()[0]
    assert header == "lambda,functional,n_cubes,boundary_share"


def test_verify_oscillation_rerun_byte_identical(tmp_path):
    args = lambda out: [
        "verify-cddd",
        "--set",
        "function.name=tent",
        "--set",
        "grid.j_min=-3",
        "--set",
        "grid.j_max=2",
        "--beta",
        "2.0",
        "--out",
        str(out),
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args(out1)) == 0
    assert main(args(out2)) == 0
    assert read(out1 / "results.csv") == read(out2 / "results.csv")


def test_verify_diffquot_gamma_zero_rejected(tmp_path):
    code = main(
        ["verify-bsvy", "--gamma", "0.0", "--out", str(tmp_path / "o")]
    )
    assert code == 1


def test_verify_diffquot_inadmissible_gamma_message(tmp_path, capsys):
    code = main(
        ["verify-bsvy", "--gamma", "-0.5", "--p", "1.0", "--q", "1.0",
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "admissible range" in err


def test_verify_diffquot_linear_run(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "verify-bsvy",
            "--set",
            "function.name=linear",
            "--set",
            "grid.lo=-1",
            "--set",
            "grid.hi=1",
            "--set",
            "lambda_lo=100.0",
            "--set",
            "lambda_hi=10000.0",
            "--gamma",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["lower_const"] == pytest.approx(2.0, abs=1e-12)
    assert summary["ratio"] == pytest.approx(2.0, rel=2e-2)


def test_verify_bsvy_sampled_far_tail_in_closed_form(tmp_path):
    # gamma = -0.6 with q = 0.5 (s = -1.2) on the cubic-edged plateau, which
    # takes the sampled path with no certified outer radius: it samples out
    # to reach and adds the exact runs on the flat end pieces past it, so no
    # tail is cut (the x4 extension to a 1e12 cap wrote 12.423448253687395
    # and flagged the level).  The tent (all pieces linear) takes the exact
    # path.  Neither writes a tail column
    for name, value in (("smoothed_indicator", 12.423465818878256), ("tent", 3.185987387699436)):
        out = tmp_path / name
        main(
            [
                "verify-bsvy",
                "--set", f"function.name={name}",
                "--set", "grid.lo=-2",
                "--set", "grid.hi=2",
                "--set", "q=0.5",
                "--set", "lambda_lo=1.0",
                "--set", "lambda_hi=1.0",
                "--set", "lambda_count=1",
                "--gamma", "-0.6",
                "--out", str(out),
            ]
        )
        lines = read(out / "results.csv").decode().splitlines()
        assert lines[0] == "lambda,functional"
        assert float(lines[1].split(",")[1]) == pytest.approx(value, rel=1e-12)


def test_verify_diffquot_memberless_nodes_not_flagged(tmp_path):
    # gamma = -2 on the tent, which takes the exact path: nodes with no
    # member add 0.  At lam = 30 every member lies on the flat tails,
    # r > 30 / f(x), so the functional is 30 * (Int tent^2) / 900 = 1/45.
    # The far-tail extension of the sampled path, whose memberless nodes
    # stopped below its cap, wrote values within 1e-6 of these
    out = tmp_path / "o"
    main(
        [
            "verify-bsvy",
            "--set", "function.name=tent",
            "--set", "grid.lo=-2",
            "--set", "grid.hi=2",
            "--set", "lambda_lo=0.1",
            "--set", "lambda_hi=30.0",
            "--set", "lambda_count=3",
            "--gamma", "-2.0",
            "--out", str(out),
        ]
    )
    rows = [line.split(",") for line in read(out / "results.csv").decode().splitlines()[1:]]
    values = [float(row[1]) for row in rows]
    assert values == pytest.approx(
        [1.7513423774970793, 0.4603035287326635, 0.022222222222222223], rel=1e-12
    )
    assert values[2] == pytest.approx(1 / 45, rel=1e-15)
    assert values == pytest.approx(
        [1.7513418826234046, 0.46030344772060044, 0.022222217015271477], rel=1e-6
    )


def test_verify_diffquot_memberless_nodes_not_flagged_slow_tail(tmp_path):
    # gamma = -1.2 on the tent, which takes the exact path: the members of
    # nodes near the ends of the support lie beyond about 1e9, in runs to
    # infinity taken in closed form.  They alone carry the functional at
    # lam = 30, where the far-tail extension of the sampled path stopped
    # those nodes as memberless and wrote 0; the exact values are those it
    # wrote when it ran every node to its 1e12 cap, within 3e-6
    out = tmp_path / "o"
    main(
        [
            "verify-bsvy",
            "--set", "function.name=tent",
            "--set", "grid.lo=-2",
            "--set", "grid.hi=2",
            "--set", "lambda_lo=0.1",
            "--set", "lambda_hi=30.0",
            "--set", "lambda_count=3",
            "--gamma", "-1.2",
            "--out", str(out),
        ]
    )
    rows = [line.split(",") for line in read(out / "results.csv").decode().splitlines()[1:]]
    values = [float(row[1]) for row in rows]
    assert values == pytest.approx(
        [3.1338850159823552, 0.030547633290456341, 1.9596315892612141e-08], rel=1e-12
    )
    # the values written when every node ran to the cap
    assert values == pytest.approx(
        [3.1338831472689517, 0.030547621515254957, 1.959629854249857e-08], abs=3e-6
    )
    assert values[0] == 3.1338850159823552


def test_sharpness_cli_matches_spec_shape(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["sharpness", "--case", "ap", "--p", "2", "--deltas", "7", "--out", str(out)]
    )
    assert code == 0
    rows = read(out / "results.csv").decode().splitlines()
    assert rows[0] == "param,lhs,constant,grad_norm,certified"
    assert len(rows) == 8  # header + 7 grid points
    summary = json.loads(read(out / "summary.json"))
    assert "slope" in summary
    assert abs(summary["slope"] + 3.0) <= 0.15


def test_classify_weight_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "classify-weight",
            "--set",
            "weight.kind=power",
            "--set",
            "weight.exponent=0.5",
            "--p",
            "1.0",
            "--set",
            "depths=[6, 12, 24]",
            "--set",
            "with_quotient=false",
            "--out",
            str(out),
        ]
    )
    assert code == 2  # violation finding
    summary = json.loads(read(out / "summary.json"))
    assert summary["verdict"] == "violates"
    assert summary["analytic_reference"] is False


@pytest.mark.parametrize("center, code", [(100.0, 1), (10.0, 2)], ids=["100", "10"])
def test_classify_weight_far_center(tmp_path, capsys, center, code):
    # at centre 100 the depth-48 probe cubes (width 2^-48) are narrower than
    # the float spacing 2^-46 there: the run is refused before any family is
    # built, with one error line naming the centre and the deepest depth
    # that resolves there; at centre 10 the same run goes through
    argv = [
        "classify-weight",
        "--set", "weight.kind=power",
        "--set", "weight.exponent=0.5",
        "--set", f"weight.center={center}",
        "--out", str(tmp_path),
    ]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    if code == 1:
        assert len(err) == 1 and err[0].startswith("error: probe cubes of depth 48")
        assert "centre 100.0" in err[0] and err[0].endswith("there is 46")
    else:
        assert json.loads(read(tmp_path / "summary.json"))["verdict"] == "violates"


def test_wavelet_check_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "wavelet-check",
            "--set",
            "order=4",
            "--set",
            "j_max=3",
            "--beta",
            "2.0",
            "--set",
            "function.name=tent",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert max(summary["moment_residuals"]) < 1e-6
    assert summary["orthonormality_residual"] < 1e-4
    header = read(out / "results.csv").decode().splitlines()[0]
    assert header == "e,j,m,value"


def test_ap_constant_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "ap-constant",
            "--set",
            "weight.kind=power",
            "--set",
            "weight.exponent=-0.5",
            "--p",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["estimate"] > 2.0
    # |x - 1/2| at p = 2: the dual power e = -1 takes the log form, and the
    # weight sits on the edge of the class, so the estimate is unbounded
    out = tmp_path / "log"
    argv = ["ap-constant", "--out", str(out), "--set", "p=2"]
    for spec in ("kind=power", "exponent=1.0", "center=0.5"):
        argv += ["--set", "weight." + spec]
    assert main(argv) == 0
    assert json.loads(read(out / "summary.json"))["verdict"] == "unbounded"


def test_ap_constant_cli_takes_one_ratio_per_probe(tmp_path, monkeypatch):
    # the rows and the estimate share one ap_ratios call, over every probe
    from dyadicweights import cli

    calls = []

    def counted(w, p, probes, _orig=cli.ap_ratios):
        calls.append(len(probes))
        return _orig(w, p, probes)

    monkeypatch.setattr(cli, "ap_ratios", counted)
    for name in ("ap-constant", "ap-constant-unbounded"):
        calls.clear()
        assert main([*ARGV_RUNS[name][0], "--out", str(tmp_path)]) == 0
        probes = load_strict(tmp_path / "summary.json")["probe_count"]
        assert calls == [probes]


def test_good_cubes_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["good-cubes", "--set", "trials=20", "--out", str(out)]
    )
    assert code == 0
    rows = read(out / "results.csv").decode().splitlines()
    assert len(rows) == 41
    # the summary is the record with the largest ratio
    ratios = [float(r.split(",")[2]) / float(r.split(",")[3]) for r in rows[1:]]
    summary = load_strict(out / "summary.json")
    assert summary["ratio"] == max(ratios)
    assert (summary["verdict"], summary["certified"]) == ("pass", True)
    assert summary["check"].startswith("good_cube_domination[")


@pytest.mark.parametrize(
    "subcommand",
    ["verify-cddd", "verify-bsvy", "mean-functional", "wavelet-check", "good-cubes"],
)
def test_checked_runs_write_both_sides_of_their_record(tmp_path, subcommand):
    argv = [subcommand, "--out", str(tmp_path)]
    if subcommand == "good-cubes":
        argv += ["--set", "trials=4"]
    main(argv)
    summary = load_strict(tmp_path / "summary.json")
    keys = {"verdict", "check", "lhs", "rhs", "ratio", "ceiling", "certified"}
    assert keys | {"details"} <= set(summary)
    lhs, rhs = summary["lhs"], summary["rhs"]
    assert summary["ratio"] == (0.0 if lhs == 0 else lhs / rhs)
    passed = summary["certified"] and summary["ratio"] <= summary["ceiling"]
    assert summary["verdict"] == ("pass" if passed else "fail")


def test_good_cubes_refuses_zero_trials(tmp_path):
    assert main(["good-cubes", "--set", "trials=0", "--out", str(tmp_path)]) == 1


def test_mean_functional_reports_near_threshold_spread(tmp_path):
    from dyadicweights import oscillation
    from dyadicweights.cli import build_function, build_weight, build_window

    assert main(["mean-functional", "--out", str(tmp_path)]) == 0
    summary = load_strict(tmp_path / "summary.json")
    prof = oscillation.mean_functional(
        build_function({}), build_weight({}), 1.0, 2.0, build_window({})
    )
    spread = summary["truncation"]["near_threshold_spread"]
    assert spread == prof.flags["near_threshold"]


def test_unknown_subcommand_exit_code():
    assert main(["frobnicate"]) == 1


def test_mean_functional_cli_band_rejected(tmp_path):
    code = main(
        [
            "mean-functional",
            "--set",
            "function.name=indicator",
            "--beta",
            "0.5",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1


def test_plot_emitted(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "verify-cddd",
            "--set",
            "function.name=tent",
            "--set",
            "grid.j_min=-3",
            "--set",
            "grid.j_max=2",
            "--plot",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "plot.svg").exists()


def test_plot_svg_byte_identical_and_one_vertex_per_row(tmp_path):
    import xml.etree.ElementTree as ET

    def run(out, plot):
        args = [
            "verify-cddd",
            "--set",
            "function.name=tent",
            "--set",
            "grid.j_min=-3",
            "--set",
            "grid.j_max=2",
            "--out",
            str(out),
        ]
        assert main(args + (["--plot"] if plot else [])) == 0

    a, b, bare = tmp_path / "a", tmp_path / "b", tmp_path / "bare"
    run(a, True)
    run(b, True)
    run(bare, False)
    svg = read(a / "plot.svg")
    assert svg == read(b / "plot.svg")
    assert not (bare / "plot.svg").exists()
    assert read(a / "results.csv") == read(bare / "results.csv")
    assert read(a / "summary.json") == read(bare / "summary.json")

    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f".//{ns}polyline") + root.findall(f".//{ns}path")
    assert len(lines) == 1
    vertices = lines[0].get("points").split()
    n_rows = len(read(a / "results.csv").decode().splitlines()) - 1
    assert n_rows > 1 and len(vertices) == n_rows
    labels = [t.text for t in root.iter(f"{ns}text")]
    # lambda > 0 everywhere: log axis; the functional reaches 0: linear axis
    assert "lambda (log)" in labels and "functional" in labels


def test_plot_skips_and_drops_reported(tmp_path, capsys):
    from dyadicweights.cli import maybe_plot

    out = tmp_path / "o"
    code = main(
        ["ap-constant", "--set", "weight.kind=constant", "--plot", "--out", str(out)]
    )
    assert code == 0
    assert not (out / "plot.svg").exists()
    assert "plot.svg not written" in capsys.readouterr().err

    # a row missing only x must not shift later y values onto earlier x values
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("x,y\n1,10\n,20\n4,inf\n8,80\n")
    path = maybe_plot(str(tmp_path), str(csv_path), "x", "y")
    assert path is not None
    assert "dropped 2 of 4 rows" in capsys.readouterr().err
    svg = read(path).decode()
    points = svg.split('points="')[1].split('"')[0].split()
    # log-log line through (1, 10) and (8, 80): both ends at the box corners
    assert points == ["72.00,288.00", "464.00,16.00"]

    csv_path.write_text("x,y\n,1\nnan,2\n")
    assert maybe_plot(str(tmp_path / "none"), str(csv_path), "x", "y") is None
    assert "plot.svg not written" in capsys.readouterr().err

    csv_path.write_text("x,y\n0,5\n")
    one = maybe_plot(str(tmp_path), str(csv_path), "x", "y")
    assert read(one).decode().count('points="268.00,152.00"') == 1


def test_run_without_plot_removes_older_plot(tmp_path, capsys):
    out = tmp_path / "o"
    tent = [
        "verify-cddd",
        "--set",
        "function.name=tent",
        "--set",
        "grid.j_min=-3",
        "--set",
        "grid.j_max=2",
        "--out",
        str(out),
    ]
    assert main(tent + ["--plot"]) == 0
    assert (out / "plot.svg").exists()
    assert main(tent) == 0
    assert not (out / "plot.svg").exists()
    # classify-weight has one series per member, so --plot draws nothing and
    # the older plot goes as well
    assert main(tent + ["--plot"]) == 0
    classify = [
        "classify-weight",
        "--set",
        "weight.kind=constant",
        "--set",
        "depths=[6, 12]",
        "--set",
        "with_quotient=false",
        "--plot",
        "--out",
        str(out),
    ]
    assert main(classify) == 0
    assert not (out / "plot.svg").exists()
    assert "classify-weight has no plot" in capsys.readouterr().err


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADW_OUT", str(tmp_path / "envout"))
    code = main(
        ["ap-constant", "--set", "weight.kind=constant", "--p", "2.0"]
    )
    assert code == 0
    assert (tmp_path / "envout" / "summary.json").exists()
