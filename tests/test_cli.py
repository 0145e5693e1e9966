import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypctrl.cli import (ConfigError, build_parser, main, parse_config, run)

ROOT = Path(__file__).resolve().parents[1]

EXAMPLE1 = {
    "n": 2,
    "m": 1,
    "speeds": [
        {"type": "constant", "value": -1.0},
        {"type": "constant", "value": 1.0},
    ],
    "M": [[0.0, 0.0], [0.0, 0.0]],
    "Q0": [[1.0]],
    "Q1": [[1.0]],
    "omega": [[0.25, 0.75]],
    "grid": {"cells": 64, "cfl": 0.9},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(EXAMPLE1))
    return str(path)


def config_variant(tmp_path, name, **overrides):
    data = json.loads(json.dumps(EXAMPLE1))
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# overflows within a few steps: 1e100 squared is not finite
BIG_SOURCE = {"M": [[1e100, 0.0], [0.0, 1e100]], "grid": {"cells": 32, "cfl": 0.9}}
GRAMIAN = ["gramian", "--tmin", "0.3", "--tmax", "0.7", "--steps", "3"]

# couplings whose rank sits at the PIVOT_RTOL edge: this Q1 factors with
# rank 3 but its backwards relabeling with rank 2, and this Q0 factors with
# rank 2; the other coupling is the identity
SIX = {"n": 6, "m": 3,
       "speeds": [{"type": "constant", "value": v}
                  for v in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)],
       "M": [[0.0] * 6 for _ in range(6)], "omega": [[0.2, 0.5]],
       "grid": {"cells": 64}, "Q0": np.eye(3).tolist(), "Q1": np.eye(3).tolist()}
EDGE_Q1 = [[0.5988462126346276, 0.03972210748165899, -0.2924567509650886],
           [-0.7819084623568421, -0.2571922406188707, 0.008142180518343508],
           [-0.14653393984055052, 0.37814646189991136, 0.7775170830871272]]
EDGE_Q0 = [[0.18905338179353307, -0.5227484414807474, -0.41306354339189344],
           [-2.4414673826398556, 1.799707382720902, 1.1441658720372287],
           [-2.4914011263956173, 2.0488453834949376, 1.347263338418283]]


def control_csv(n_steps, dt, drop=0):
    """A zero control CSV on the grid of EXAMPLE1, less its last ``drop`` rows."""
    cells = EXAMPLE1["grid"]["cells"]
    lines = [f"{j * dt!r},{(i + 0.5) / cells!r},0,0"
             for j in range(n_steps) for i in range(cells)]
    return "t,x,u1,u2\n" + "".join(line + "\n" for line in lines[:len(lines) - drop])


def capture(argv):
    out = io.StringIO()
    parser = build_parser()
    code = run(parser.parse_args(argv), out)
    return code, out.getvalue()


class TestParseConfig:
    def test_minimal_valid(self, config_path):
        cfg = parse_config(config_path)
        assert cfg.spec.n == 2
        assert cfg.cells == 64

    def test_reversed_omega_rejected(self, tmp_path):
        path = config_variant(tmp_path, "bad_omega.json", omega=[[0.75, 0.25]])
        with pytest.raises(ConfigError):
            parse_config(path)
        assert main(["mintime", "--config", path]) == 2

    def test_wrong_q0_shape_rejected(self, tmp_path):
        path = config_variant(tmp_path, "bad_q0.json", Q0=[[1.0, 0.0]])
        with pytest.raises(ConfigError, match="coupling"):
            parse_config(path)
        assert main(["mintime", "--config", path]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = config_variant(tmp_path, "extra.json", extra=1)
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,,}')
        with pytest.raises(ConfigError, match="line"):
            parse_config(path)

    def test_piecewise_constant_source(self, tmp_path):
        path = config_variant(
            tmp_path, "pwm.json",
            M={"type": "piecewise_constant", "x": [0.0, 0.5, 1.0],
               "matrices": [[[0.0, 0.1], [0.0, 0.0]],
                            [[0.0, 0.0], [0.2, 0.0]]]})
        cfg = parse_config(path)
        assert cfg.spec.source.value(0.25)[0, 1] == 0.1
        assert cfg.spec.source.value(0.75)[1, 0] == 0.2

    def test_piecewise_speeds_merge_breakpoints(self, tmp_path):
        path = config_variant(
            tmp_path, "pw.json",
            speeds=[{"type": "constant", "value": -1.0},
                    {"type": "piecewise_linear", "x": [0.0, 0.5, 1.0],
                     "v": [1.0, 2.0, 1.0]}])
        cfg = parse_config(path)
        assert cfg.spec.speeds.kind == "piecewise_linear"
        assert cfg.spec.speeds.value(1, 0.25) == pytest.approx(1.5)
        assert cfg.spec.speeds.value(0, 0.25) == -1.0


class TestSubcommands:
    def test_mintime_output(self, config_path):
        code, text = capture(["mintime", "--config", config_path])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "T_inf = 0.5"
        assert lines[1] == "lo,hi,case,value"
        assert len(lines) == 4

    def test_mintime_rank_violation_exits_3(self, tmp_path, capsys):
        path = config_variant(tmp_path, "singular.json", Q0=[[0.0]])
        assert main(["mintime", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("ERROR:") and "\n" == captured.err[-1]
        assert "T_inf = inf" in captured.out

    def test_config_error_is_one_line_diagnostic(self, tmp_path, capsys):
        path = config_variant(tmp_path, "bad.json", omega=[[0.75, 0.25]])
        assert main(["mintime", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:")
        assert err.count("\n") == 1

    def test_canon_identity(self):
        code, text = capture(["canon", "--matrix", "[[1,0],[0,1]]"])
        assert code == 0
        assert "pivots: (1,1) (2,2)" in text
        assert "rank: 2" in text

    def test_canon_from_config(self, config_path):
        code, text = capture(["canon", "--config", config_path, "--which", "Q1"])
        assert code == 0
        assert "pivots: (1,1)" in text

    def test_omegahat(self, config_path):
        code, text = capture(["omegahat", "--config", config_path, "--eps", "0.1"])
        assert code == 0
        assert "achieved_bound" in text
        bound = float(text.splitlines()[0].split("=")[1])
        assert bound <= 0.6

    def test_gramian_csv(self, config_path):
        code, text = capture(["gramian", "--config", config_path,
                              "--tmin", "0.4", "--tmax", "0.6", "--steps", "3"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "T,sigma_min"
        assert len([l for l in lines if "," in l]) == 4

    def test_necessity_requires_rank_deficiency(self, config_path):
        assert main(["necessity", "--config", config_path,
                     "--nu-list", "1,2"]) == 3

    def test_necessity_csv(self, tmp_path):
        path = config_variant(tmp_path, "deficient.json", Q0=[[0.0]],
                              omega=[[0.0, 1.0]],
                              grid={"cells": 200, "cfl": 1.0})
        code, text = capture(["necessity", "--config", path,
                              "--nu-list", "1,2", "--T", "2.0"])
        assert code == 0
        rows = [l.split(",") for l in text.strip().splitlines()[1:-1]]
        ratios = {int(nu): float(r) for nu, r in rows}
        assert ratios[1] == pytest.approx(2.0, rel=0.05)
        assert ratios[2] == pytest.approx(3.0, rel=0.05)

    def test_necessity_at_the_rank_edge(self, tmp_path):
        path = config_variant(tmp_path, "edge.json", **{**SIX, "Q0": EDGE_Q0})
        code, text = capture(["necessity", "--config", path, "--nu-list", "1,2,4"])
        assert code == 0
        ratios = [float(line.split(",")[1]) for line in text.splitlines()[1:4]]
        assert all(np.isfinite(ratios)) and ratios == sorted(set(ratios))

    def test_simulate_roundtrip(self, config_path, tmp_path):
        out_csv = tmp_path / "state.csv"
        code = main(["simulate", "--config", config_path, "--T", "0.25",
                     "--y0", "sinpi", "--out", str(out_csv)])
        assert code == 0
        rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
        assert rows.shape == (64, 3)
        code2 = main(["simulate", "--config", config_path, "--T", "0.25",
                      "--y0", str(out_csv), "--out", str(tmp_path / "again.csv")])
        assert code2 == 0

    def test_synthesize_below_threshold_exits_4(self, config_path, tmp_path):
        code = main(["synthesize", "--config", config_path, "--T", "0.4",
                     "--y0", "sinpi", "--y1", "zero",
                     "--out", str(tmp_path / "synth")])
        assert code == 4

    def test_synthesize_writes_artifacts(self, config_path, tmp_path):
        outdir = tmp_path / "synth"
        code = main(["synthesize", "--config", config_path, "--T", "0.7",
                     "--y0", "sinpi", "--y1", "zero", "--out", str(outdir)])
        assert code == 0
        assert (outdir / "control.csv").exists()
        assert (outdir / "final_state.csv").exists()
        summary = (outdir / "summary.txt").read_text()
        assert float(summary.splitlines()[0].split("=")[1]) <= 0.1

    def test_simulate_replays_synthesized_control(self, config_path, tmp_path):
        outdir = tmp_path / "synth"
        main(["synthesize", "--config", config_path, "--T", "0.7",
              "--y0", "sinpi", "--y1", "zero", "--out", str(outdir)])
        final_csv = tmp_path / "replayed.csv"
        code = main(["simulate", "--config", config_path, "--T", "0.7",
                     "--y0", "sinpi", "--u", str(outdir / "control.csv"),
                     "--out", str(final_csv)])
        assert code == 0
        replay = np.loadtxt(final_csv, delimiter=",", skiprows=1)
        direct = np.loadtxt(outdir / "final_state.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(replay - direct)) <= 1e-12


class TestFlagValidation:
    @pytest.mark.parametrize("flags", [
        ["simulate", "--T", "inf", "--y0", "sinpi"],
        ["simulate", "--T", "nan", "--y0", "sinpi"],
        ["simulate", "--T", "-1", "--y0", "sinpi"],
        ["synthesize", "--T", "nan", "--y0", "sinpi", "--y1", "zero"],
        ["synthesize", "--T", "inf", "--y0", "sinpi", "--y1", "zero"],
        ["synthesize", "--T", "0", "--y0", "sinpi", "--y1", "zero"],
        ["gramian", "--tmin", "0.3", "--tmax", "0.7", "--steps", "0"],
        ["gramian", "--tmin", "0.5", "--tmax", "0.3", "--steps", "3"],
        ["gramian", "--tmin", "0", "--tmax", "0.3", "--steps", "3"],
        ["gramian", "--tmin", "nan", "--tmax", "0.3", "--steps", "3"],
        ["gramian", "--tmin", "0.3", "--tmax", "inf", "--steps", "3"],
        ["gramian", "--tmin", "0.3", "--tmax", "0.3", "--steps", "3"],
        ["necessity", "--nu-list", ""],
        ["necessity", "--nu-list", "1,x"],
        ["necessity", "--nu-list", "0"],
        ["necessity", "--nu-list", "1,,2"],
        ["necessity", "--nu-list", "2,-1"],
        ["necessity", "--nu-list", "1.5"],
        ["necessity", "--nu-list", "1", "--T", "nan"],
        ["necessity", "--nu-list", "1", "--T", "-1"],
        ["omegahat", "--eps", "-1"],
        ["omegahat", "--eps", "0"],
        ["omegahat", "--eps", "nan"],
        ["omegahat", "--eps", "inf"],
        ["canon", "--matrix", "[]"],
        ["canon", "--matrix", "[[]]"],
        ["canon", "--matrix", "[1, 2]"],
        ["canon", "--matrix", "[[NaN]]"],
        ["canon", "--matrix", "[[Infinity, 1]]"],
        ["canon", "--matrix", '{"a": 1}'],
        ["simulate", "--T", "0.1", "--y0", "zero", "--u", "no_such_control.csv"],
        ["omegahat", "--eps", "1e-16"],
    ])
    def test_bad_flag_exits_2_with_one_error_line(self, config_path, tmp_path,
                                                  capsys, flags):
        argv = flags[:1] + ["--config", config_path] + flags[1:]
        if flags[0] == "synthesize":
            argv += ["--out", str(tmp_path / "synth")]
        assert main(argv) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides,command,code", [
        ({"n": 2.7}, ["mintime"], 2),
        ({"n": 2.0}, ["mintime"], 2),
        ({"m": 1.0}, ["mintime"], 2),
        ({"m": True}, ["mintime"], 2),
        ({"n": "2"}, ["mintime"], 2),
        ({"grid": {"cells": 64.9}}, ["mintime"], 2),
        ({"grid": {"cells": 64.0, "cfl": 0.9}}, ["simulate", "--T", "0.1", "--y0", "zero"], 2),
        ({"omega": [[0.0, 1.0]]}, ["omegahat", "--eps", "0.1"], 2),
        ({"omega": [[0.0, 0.5], [0.5, 1.0]]}, ["omegahat", "--eps", "0.1"], 2),
        ({"grid": {"cells": 64, "cfl": "abc"}}, ["mintime"], 2),
        ({"grid": {"cells": 64, "cfl": True}}, ["mintime"], 2),
        ({"speeds": [{"type": "constant", "value": "x"},
                     {"type": "constant", "value": 1.0}]}, ["mintime"], 2),
        ({"speeds": [{"type": "constant", "value": None},
                     {"type": "constant", "value": 1.0}]}, ["mintime"], 2),
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "piecewise_linear", "x": 3, "v": [1.0, 2.0]}]}, ["mintime"], 2),
        ({"speeds": [{"type": "constant"},
                     {"type": "piecewise_linear", "x": [0.0, 1.0], "v": [1.0, 2.0]}]},
         ["mintime"], 2),
        ({"M": {"type": "piecewise_constant", "x": [0.0, 0.5, 1.0],
                "matrices": [[[0.0, 0.0], [0.0, 0.0]]] * 3}}, ["mintime"], 2),
        ({"Q0": [[0.0]]}, ["necessity", "--nu-list", "1,2", "--T", "0.5"], 4),
        ({"Q0": [[0.0]], "M": [[0.5, 0.0], [0.0, 0.0]]}, ["necessity", "--nu-list", "1,2"], 2),
        ({"grid": {"cells": 2100}}, GRAMIAN, 1),
        (BIG_SOURCE, GRAMIAN, 1),
        (BIG_SOURCE, ["simulate", "--T", "1", "--y0", "sinpi"], 1),
    ], ids=["n-float", "n-integral-float", "m-float", "m-bool", "n-string",
            "cells-float", "cells-integral-float", "omega-covers", "omega-closure-covers",
            "cfl-string", "cfl-bool", "speed-string", "speed-null", "piecewise-x-number",
            "mixed-constant-no-value", "source-matrix-count", "necessity-short-horizon",
            "necessity-source", "gramian-guard", "gramian-overflow", "simulate-overflow"])
    def test_bad_config_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                    overrides, command, code):
        path = config_variant(tmp_path, "bad.json", **overrides)
        assert main(command[:1] + ["--config", path] + command[1:]) == code
        self._assert_one_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag,text", [
        ("--y0", "x,y1,y2\n0.5,abc,0\n"),
        ("--u", "t,x,u1,u2\n0,0.5,1,zz\n"),
        ("--y0", "x,y1,y2\n0.5,nan,2\n"),
        ("--y0", "x,y1,y2\n0.25,1,2\n0.75,-inf,0\n"),
        ("--y0", "x,y1,y2\n"),
        ("--u", control_csv(2, 0.05, drop=1)),
    ], ids=["state-cell", "control-cell", "state-nan", "state-inf", "state-header-only",
            "control-missing-row"])
    def test_bad_csv_exits_2_with_one_error_line(self, config_path, tmp_path,
                                                 capsys, flag, text):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        argv = ["simulate", "--config", config_path, "--T", "0.1"]
        if flag == "--u":
            argv += ["--y0", "zero"]
        assert main(argv + [flag, str(csv)]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("overrides,command,code", [
        ({}, ["simulate", "--T", "0.1", "--y0", "empty.csv"], 2),
        (BIG_SOURCE, GRAMIAN, 1),
        (BIG_SOURCE, ["simulate", "--T", "1", "--y0", "sinpi"], 1),
    ], ids=["header-only-csv", "gramian-overflow", "simulate-overflow"])
    def test_process_prints_one_stderr_line(self, tmp_path, overrides, command, code):
        # pytest records warnings instead of printing them, so the stderr of
        # a real process is checked: neither numpy's no-data warning nor its
        # floating-point warnings may show
        (tmp_path / "empty.csv").write_text("x,y1,y2\n")
        path = config_variant(tmp_path, "cfg.json", **overrides)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from hypctrl.cli import main; "
             "sys.exit(main(sys.argv[1:]))", command[0], "--config", path, *command[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr.startswith("ERROR:") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("overrides,command,code,stdout", [
        ({"Q0": [[0.0]]}, ["mintime"], 3, "T_inf = inf\n"),
        ({"Q0": [[0.0]]}, ["omegahat", "--eps", "0.1"], 3, ""),
        ({"omega": [[0.75, 0.25]]}, ["mintime"], 2, ""),
        ({**SIX, "Q1": EDGE_Q1}, ["mintime"], 3, "T_inf = inf\n"),
        ({**SIX, "Q1": EDGE_Q1}, ["omegahat", "--eps", "0.1"], 3, ""),
    ], ids=["mintime-rank", "omegahat-rank", "config", "mintime-rank-edge",
            "omegahat-rank-edge"])
    def test_run_maps_errors_to_codes(self, tmp_path, capsys, overrides, command,
                                      code, stdout):
        # callers that bypass main, such as the benchmark, rely on run itself
        # returning the code and printing the one error line
        path = config_variant(tmp_path, "cfg.json", **overrides)
        assert capture(command[:1] + ["--config", path] + command[1:]) == (code, stdout)
        self._assert_one_error_line(capsys)

    def test_omegahat_rank_deficiency_still_exits_3(self, tmp_path, capsys):
        path = config_variant(tmp_path, "deficient.json", Q0=[[0.0]])
        assert main(["omegahat", "--config", path, "--eps", "0.1"]) == 3
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("T", ["0.05", "0.2"])
    def test_control_not_spanning_the_horizon_exits_2(self, config_path, tmp_path,
                                                      capsys, T):
        # two steps of 0.05: shorter and longer horizons are both bad input
        csv = tmp_path / "control.csv"
        csv.write_text(control_csv(2, 0.05))
        assert main(["simulate", "--config", config_path, "--T", T, "--y0", "zero",
                     "--u", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err == f"ERROR: control series spans 2 steps of 0.05 = 0.1, not the horizon {T}\n"

    @pytest.mark.parametrize("overrides,line", [
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "constant", "value": 0.0}]},
         "speed-sign): components [1] change sign or vanish; negative speeds must "
         "be < 0 and positive speeds must be > 0 everywhere"),
        ({"m": 2, "speeds": [{"type": "constant", "value": -2.0},
                             {"type": "constant", "value": -1.0}],
          "Q0": [[1.0, 1.0]]},
         "dimension): need n >= 2 with at least one negative and one positive "
         "speed (m=2, p=0)"),
        ({"speeds": [{"type": "constant", "value": 1.0},
                     {"type": "constant", "value": -1.0}]},
         "speed-ordering): speeds must be nondecreasing in the component index "
         "at every breakpoint"),
        ({"n": 3, "speeds": [{"type": "constant", "value": -1.0},
                             {"type": "piecewise_linear", "x": [0.0, 0.5, 1.0],
                              "v": [1.0, 2.0, 3.0]},
                             {"type": "piecewise_linear", "x": [0.0, 0.5, 1.0],
                              "v": [2.0, 2.0, 4.0]}],
          "M": [[0.0] * 3] * 3, "Q0": [[1.0], [1.0]], "Q1": [[1.0, 1.0]]},
         "speed-coincidence): speeds 1 and 2 are equal somewhere but not "
         "everywhere; equal somewhere implies equal everywhere"),
        ({"Q0": [[1.0, 1.0]]},
         "coupling-shapes): Q0 must be 1x1 and Q1 1x1 with finite entries; "
         "got (1, 2) and (1, 1)"),
        ({"M": {"type": "piecewise_constant", "x": [0.0, 1.0],
                "matrices": [[[0.0] * 3] * 3]}},
         "source): source matrices must be 2x2 with finite entries"),
    ], ids=["speed-sign", "dimension", "speed-ordering", "speed-coincidence",
            "coupling-shapes", "source"])
    def test_broken_hypothesis_exits_2_naming_it(self, tmp_path, capsys,
                                                 overrides, line):
        path = config_variant(tmp_path, "bad.json", **overrides)
        assert main(["mintime", "--config", path]) == 2
        assert capsys.readouterr().err == f"ERROR: config ({line}\n"

    @staticmethod
    def _assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("ERROR:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_single_horizon_gramian(self, config_path):
        code, text = capture(["gramian", "--config", config_path,
                              "--tmin", "0.6", "--tmax", "0.6", "--steps", "1"])
        assert code == 0
        assert text.splitlines()[1].startswith("0.59999999999999998,")

    def test_simulate_csv_is_the_forward_final_state(self, config_path, tmp_path):
        from hypctrl.cli import _state_from_arg, _write_state_csv
        from hypctrl.pde import solve_forward
        out_csv = tmp_path / "state.csv"
        assert main(["simulate", "--config", config_path, "--T", "0.37",
                     "--y0", "bump", "--out", str(out_csv)]) == 0
        cfg = parse_config(config_path)
        y0 = _state_from_arg("bump", cfg.grid, cfg.spec.n)
        expected = io.StringIO()
        _write_state_csv(expected, solve_forward(cfg.spec, y0, None, 0.37, cfg.cfl).final)
        assert out_csv.read_text() == expected.getvalue()


class TestDeterminism:
    def test_repeated_runs_bit_identical(self, config_path):
        outputs = set()
        for _ in range(2):
            _, text = capture(["gramian", "--config", config_path,
                               "--tmin", "0.3", "--tmax", "0.7", "--steps", "5"])
            outputs.add(text)
        assert len(outputs) == 1
        for _ in range(2):
            _, text = capture(["mintime", "--config", config_path])
            outputs.add(text)
        assert len(outputs) == 2

    # sha256 of the state CSV of `simulate --T 0.37 --y0 sinpi`: any change
    # to the marching arithmetic shows here.  Both configs have 1x1
    # couplings (a plain product, not matmul) and the source goes through
    # einsum, so no BLAS call enters these bytes.
    @pytest.mark.parametrize("overrides,digest", [
        ({}, "c45611cad7814e8191809b589195c8a3238798728184450f4d7b3fca5447f572"),
        ({"speeds": [{"type": "piecewise_linear", "x": [0.0, 0.5, 1.0],
                      "v": [-1.0, -1.5, -1.0]},
                     {"type": "piecewise_linear", "x": [0.0, 0.5, 1.0],
                      "v": [1.0, 2.0, 1.0]}],
          "M": [[0.3, -0.2], [0.1, 0.4]]},
         "4cbf1e373778b7bd3abde6e8f5819fa40e0d4611d8ec2b83ca4a49abb5be17d8"),
    ], ids=["example_2x2", "piecewise-source"])
    def test_simulate_golden_bytes(self, tmp_path, overrides, digest):
        path = tmp_path / "cfg.json"
        config = json.loads((ROOT / "demos" / "example_2x2.json").read_text())
        path.write_text(json.dumps({**config, **overrides}))
        code, text = capture(["simulate", "--config", str(path), "--T", "0.37",
                              "--y0", "sinpi"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest
