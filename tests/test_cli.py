"""End-to-end runs of the command-line entry point."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dyadicweights.cli import main, parse_config_text

CONFIGS = Path(__file__).parents[1] / "configs"

# Subcommand and sha256 of results.csv for every shipped config.  A refactor
# keeps these bytes; a change that moves a reported number updates the digest
# and states the old and new values.
CONFIG_RUNS = {
    "a1_battery.cfg": (
        "verify-cddd",
        "fa1c2bd24da84061e41f79e419a7228cb1ff3abe5618ae0dbc92334514768fc1",
    ),
    "ap_sharpness.cfg": (
        "sharpness",
        "d62a329cba75fe4a1762a1547916d9adc8cf0a057f927f72f4b18d20ddf2bc08",
    ),
    "linear_quotient.cfg": (
        "verify-bsvy",
        "00cb4c4d4f9613577ae0c918c66b283327c0c4473265e5cacef6e83df48f32d1",
    ),
}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_config_results_csv_digest(tmp_path, name):
    subcommand, digest = CONFIG_RUNS[name]
    main([subcommand, "--config", str(CONFIGS / name), "--out", str(tmp_path)])
    assert hashlib.sha256(read(tmp_path / "results.csv")).hexdigest() == digest


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


def test_verify_diffquot_tail_flag_written(tmp_path):
    # gamma = -0.6 with q = 0.5 on the tent: the far tail shrinks too slowly
    # for nodes with members to get it below inner_tol of their total before
    # the 1e12 cap, so they are cut there and the level is flagged
    out = tmp_path / "o"
    main(
        [
            "verify-bsvy",
            "--set", "function.name=tent",
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
    assert lines[0] == "lambda,functional,tail_flag"
    assert [line.split(",")[2] for line in lines[1:]] == ["1"]


def test_verify_diffquot_memberless_nodes_not_flagged(tmp_path):
    # gamma = -2 on the tent: outer nodes with no member stop below the cap
    # instead of running to it; the functional is the one computed when they
    # ran to the cap
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
    assert [row[2] for row in rows] == ["0", "0", "0"]
    assert [float(row[1]) for row in rows] == pytest.approx(
        [1.7513418826234046, 0.46030344772060044, 0.022222217015271477], rel=1e-12
    )


def test_verify_diffquot_memberless_nodes_not_flagged_slow_tail(tmp_path):
    # gamma = -1.2: the tails of memberless nodes shrink too slowly to reach
    # rounding level before the cap, so they stop at inner_tol of a fully
    # occupied first shell instead.  Nodes whose only members lie beyond
    # about 1e9 stop there too: the functional at the two upper levels,
    # which they alone carried when run to the cap (and flagged), moves
    # within the bound lam * (hi - lo) * inner_tol * (full first shell)
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
    assert [row[2] for row in rows] == ["0", "0", "0"]
    values = [float(row[1]) for row in rows]
    assert values == pytest.approx([3.1338831472689517, 0.03054761931825337, 0.0], rel=1e-12)
    # the values written when every node ran to the cap
    assert values == pytest.approx(
        [3.1338831472689517, 0.030547621515254957, 1.959629854249857e-08], abs=3e-6
    )
    assert values[0] == 3.1338831472689517


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


def test_good_cubes_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["good-cubes", "--set", "trials=20", "--out", str(out)]
    )
    assert code == 0
    rows = read(out / "results.csv").decode().splitlines()
    assert len(rows) == 41


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
