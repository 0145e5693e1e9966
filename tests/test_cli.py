import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypctrl.cli import (EXIT_CODES, ConfigError, build_parser, main, parse_config,
                          run)

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
# dx / max|lambda| is subnormal, so a horizon is not a finite number of steps
HUGE_SPEED = {"speeds": [{"type": "constant", "value": -1e308},
                         {"type": "constant", "value": 1.0}]}
# the demo grid at Courant 0.9 plans 222,222,223 steps over T = 1: 8.9e10
# state values times steps, above the march's work limit, refused before
# the first step
FAST_SPEED = {"speeds": [{"type": "constant", "value": -1e6},
                         {"type": "constant", "value": 1.0}],
              "grid": {"cells": 200, "cfl": 0.9}}

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


# valid JSON, but too large for a float
HUGE_INT = 10 ** 400
PIECEWISE_SPEED = {"speeds": [{"type": "constant", "value": -1.0},
                              {"type": "piecewise_linear", "x": [0.0, 0.5, 1.0],
                               "v": [1.0, 2.0, 1.0]}]}
PIECEWISE_SOURCE = {"M": {"type": "piecewise_constant", "x": [0.0, 0.5, 1.0],
                          "matrices": [[[0.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]}}

# the mutation fuzz: one or two leaves of the demo config at 24 cells are
# replaced by one of these values or deleted, then one subcommand runs
MUTANTS = (0, 1, -1, 1e308, -1e308, float("nan"), float("inf"), -float("inf"),
           "x", None, True, [], {}, HUGE_INT, "delete")
MUTATION_SEEDS = (0, 1, 2, 3, 4)
MUTATION_TRIALS = 100
MUTATION_COMMANDS = (["mintime"], ["canon", "--which", "Q1"], ["omegahat", "--eps", "0.1"],
                     ["simulate", "--T", "0.3", "--y0", "sinpi"],
                     ["synthesize", "--T", "0.7", "--y0", "sinpi", "--y1", "zero"],
                     ["gramian", "--tmin", "0.3", "--tmax", "0.7", "--steps", "3"],
                     ["necessity", "--nu-list", "1,2"])


def leaves(node, path=()):
    """The paths of the leaves of a JSON value: everything but a nonempty
    list or object."""
    if not (isinstance(node, (dict, list)) and node):
        return [path]
    keys = list(node) if isinstance(node, dict) else range(len(node))
    return [leaf for key in keys for leaf in leaves(node[key], path + (key,))]


def set_leaf(config, path, value):
    """Replace the leaf at ``path`` by ``value``, or delete it for "delete"."""
    *parents, last = path
    for key in parents:
        config = config[key]
    if value == "delete":
        del config[last]
    else:
        config[last] = value


def control_csv(n_steps, dt, drop=0, shift_last=0.0, shuffle_seed=None, shift=0.0,
                outside=0.0):
    """A control CSV on the grid of EXAMPLE1, zero but for u1 = ``outside``
    outside its omega, less its last ``drop`` rows, with every time label
    moved by ``shift``, the last one by ``shift_last`` more, and, given a
    seed, the rows shuffled."""
    cells = EXAMPLE1["grid"]["cells"]
    times = [j * dt + shift for j in range(n_steps)]
    times[-1] += shift_last
    (lo, hi), = EXAMPLE1["omega"]
    lines = [f"{t!r},{x!r},{0.0 if lo < x < hi else outside!r},0"
             for t in times for x in ((i + 0.5) / cells for i in range(cells))]
    lines = lines[:len(lines) - drop]
    if shuffle_seed is not None:
        lines = [lines[k] for k in np.random.default_rng(shuffle_seed).permutation(len(lines))]
    return "t,x,u1,u2\n" + "".join(line + "\n" for line in lines)


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

    # json raises a plain ValueError past the 4,300-digit integer limit and a
    # RecursionError on lists nested past the interpreter's depth, and
    # reading raises a ValueError on bytes that are not UTF-8
    @pytest.mark.parametrize("raw", [b'{"n": 1' + b"0" * 5000 + b"}", b'{"n": "\xff"}',
                                     b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
                             ids=["integer-digit-limit", "not-utf8", "nested-too-deep"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "raw.json"
        path.write_bytes(raw)
        assert main(["mintime", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {path}: ") and err.count("\n") == 1

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

    def test_touching_intervals(self, tmp_path):
        # omega's two intervals share the end 0.5, which is not in omega
        path = config_variant(tmp_path, "touch.json", omega=[[0.25, 0.5], [0.5, 0.75]],
                              grid={"cells": 200, "cfl": 0.9})
        code = main(["synthesize", "--config", path, "--T", "0.6",
                     "--y0", "sinpi", "--y1", "zero", "--out", str(tmp_path / "synth")])
        assert code == 0
        code, text = capture(["omegahat", "--config", path, "--eps", "0.05"])
        assert code == 0
        assert text.splitlines()[2:] == ["lo,hi", "0.265625,0.484375", "0.515625,0.734375"]

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

    def test_one_step_control_replays(self, tmp_path):
        # T below one step: the control CSV holds the single time 0, and
        # its replay takes --T as the step
        config = json.loads((ROOT / "demos" / "example_2x2.json").read_text())
        path = tmp_path / "full.json"
        path.write_text(json.dumps({**config, "omega": [[0.0, 1.0]]}))
        outdir = tmp_path / "synth"
        assert main(["synthesize", "--config", str(path), "--T", "0.001",
                     "--y0", "sinpi", "--y1", "zero", "--out", str(outdir)]) == 0
        assert len((outdir / "control.csv").read_text().splitlines()) == 1 + 200
        code, text = capture(["simulate", "--config", str(path), "--T", "0.001",
                              "--y0", "sinpi", "--u", str(outdir / "control.csv")])
        assert (code, text) == (0, (outdir / "final_state.csv").read_text())


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
        ["gramian", "--tmin", "0.3", "--tmax", "0.7", "--steps", "1"],
    ])
    def test_bad_flag_exits_2_with_one_error_line(self, config_path, tmp_path,
                                                  capsys, flags):
        argv = flags[:1] + ["--config", config_path] + flags[1:]
        if flags[0] == "synthesize":
            argv += ["--out", str(tmp_path / "synth")]
        assert main(argv) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nus,code", [
        ("1," + "1" + "0" * 400, 2),   # past a float: the config's integer reader
        ("1,1000000000", 1),           # a datum that underflows on the grid
    ], ids=["nu-401-digits", "nu-underflow"])
    def test_unresolvable_nu_exits_with_one_error_line(self, tmp_path, capsys, nus, code):
        path = config_variant(tmp_path, "witness.json", Q0=[[0.0]], omega=[[0.0, 1.0]])
        assert main(["necessity", "--config", path, "--nu-list", nus]) == code
        self._assert_one_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides,command,code", [
        ({"grid": {"cells": 10 ** 9}}, ["simulate", "--T", "0.7", "--y0", "sinpi"], 1),
        ({"grid": {"cells": 10 ** 12}}, ["simulate", "--T", "0.7", "--y0", "sinpi"], 1),
        ({"grid": {"cells": 10 ** 9}},
         ["synthesize", "--T", "0.7", "--y0", "sinpi", "--y1", "zero"], 1),
        ({"grid": {"cells": 10 ** 12}},
         ["synthesize", "--T", "0.7", "--y0", "sinpi", "--y1", "zero"], 1),
        ({"grid": {"cells": 10 ** 9}, "Q0": [[0.0]]}, ["necessity", "--nu-list", "1,2"], 1),
        ({"grid": {"cells": 10 ** 12}, "Q0": [[0.0]]}, ["necessity", "--nu-list", "1,2"], 1),
        ({}, ["gramian", "--tmin", "0.3", "--tmax", "0.7", "--steps", "1000000000"], 2),
        ({}, ["gramian", "--tmin", "0.3", "--tmax", "1e6", "--steps", "3"], 1),
    ], ids=["simulate-1e9-cells", "simulate-1e12-cells", "synthesize-1e9-cells",
            "synthesize-1e12-cells", "necessity-1e9-cells", "necessity-1e12-cells",
            "gramian-1e9-horizons", "gramian-1e6-tmax"])
    def test_oversized_job_refused_before_allocating(self, tmp_path, capsys,
                                                     overrides, command, code):
        # each is refused before its first large allocation or loop: a
        # first state of 15 GiB or more, a 7.45 GiB horizon list, and a
        # recurrence of 6.4e7 steps; one ERROR: line within a second and a
        # few MB
        path = config_variant(tmp_path, "big.json", **overrides)
        argv = command[:1] + ["--config", path] + command[1:]
        if command[0] == "synthesize":
            argv += ["--out", str(tmp_path / "synth")]
        args = build_parser().parse_args(argv)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert run(args) == code
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 4 << 20
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
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "piecewise_linear", "x": [0.0, 1.0], "v": [1.0, float("inf")]}]},
         ["mintime"], 2),
        ({"speeds": [{"type": "constant", "value": -float("inf")},
                     {"type": "constant", "value": 1.0}]},
         ["simulate", "--T", "0.3", "--y0", "sinpi"], 2),
        (HUGE_SPEED, ["simulate", "--T", "1", "--y0", "sinpi"], 1),
        (HUGE_SPEED, GRAMIAN, 1),
        (HUGE_SPEED, ["synthesize", "--T", "0.7", "--y0", "sinpi", "--y1", "zero"], 1),
        (FAST_SPEED, ["simulate", "--T", "1", "--y0", "sinpi"], 1),
    ], ids=["n-float", "n-integral-float", "m-float", "m-bool", "n-string",
            "cells-float", "cells-integral-float", "omega-covers", "omega-closure-covers",
            "cfl-string", "cfl-bool", "speed-string", "speed-null", "piecewise-x-number",
            "mixed-constant-no-value", "source-matrix-count", "necessity-short-horizon",
            "necessity-source", "gramian-guard", "gramian-overflow", "simulate-overflow",
            "speed-infinite", "speed-minus-infinite", "simulate-huge-speed",
            "gramian-huge-speed", "synthesize-huge-speed", "simulate-work-guard"])
    def test_bad_config_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                    overrides, command, code):
        path = config_variant(tmp_path, "bad.json", **overrides)
        argv = command[:1] + ["--config", path] + command[1:]
        if command[0] == "synthesize":
            argv += ["--out", str(tmp_path / "synth")]
        assert main(argv) == code
        self._assert_one_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag,text", [
        ("--y0", "x,y1,y2\n0.5,abc,0\n"),
        ("--u", "t,x,u1,u2\n0,0.5,1,zz\n"),
        ("--y0", "x,y1,y2\n0.5,nan,2\n"),
        ("--y0", "x,y1,y2\n0.25,1,2\n0.75,-inf,0\n"),
        ("--y0", "x,y1,y2\n"),
        ("--u", control_csv(2, 0.05, drop=1)),
        ("--u", control_csv(2, 0.05, shuffle_seed=0)),
        ("--y0", "x,y1,y2\n0.75,0,0\n0.5,1,0\n0.25,0,0\n"),
        ("--u", control_csv(4, 0.025, shift_last=0.4 * 0.025)),
        # two steps of 0.05 span the horizon 0.1, but start at 0.05
        ("--u", control_csv(2, 0.05, shift=0.05)),
        ("--u", control_csv(2, 0.05, outside=1.0)),
    ], ids=["state-cell", "control-cell", "state-nan", "state-inf", "state-header-only",
            "control-missing-row", "control-shuffled", "state-x-descending",
            "control-uneven-times", "control-shifted-times", "control-outside-omega"])
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

    @pytest.mark.parametrize("command", [
        GRAMIAN,
        ["simulate", "--T", "0.04", "--y0", "sinpi", "--u", "u.csv", "--out", "y.csv"],
    ], ids=["sweep", "simulate-u"])
    def test_leaves_numpy_ma_unimported(self, config_path, tmp_path, command):
        # the first np.unique of a process imports numpy.ma (about 11 ms and
        # 1.6 MB); the block partition and the control reader do without it.
        # Compared with the state after the imports, for a numpy that loads
        # numpy.ma eagerly
        (tmp_path / "u.csv").write_text(control_csv(4, 0.01))
        argv = command[:1] + ["--config", config_path] + command[1:]
        script = ("import sys, numpy, hypctrl.cli\n"
                  "before = 'numpy.ma' in sys.modules\n"
                  f"code = hypctrl.cli.main({argv!r})\n"
                  "print(code, before, 'numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        code, before, after = proc.stdout.splitlines()[-1].split()
        assert (code, after) == ("0", before)

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
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "piecewise_linear", "x": [0.0, 1.0], "v": [1.0, float("inf")]}]},
         "speed-sign): speeds of components [1] are not finite"),
    ], ids=["speed-sign", "dimension", "speed-ordering", "speed-coincidence",
            "coupling-shapes", "source", "speed-infinite"])
    def test_broken_hypothesis_exits_2_naming_it(self, tmp_path, capsys,
                                                 overrides, line):
        path = config_variant(tmp_path, "bad.json", **overrides)
        assert main(["mintime", "--config", path]) == 2
        assert capsys.readouterr().err == f"ERROR: config ({line}\n"

    @pytest.mark.parametrize("overrides,command,field", [
        ({"omega": [["0.25", "0.75"]]}, ["mintime"], "omega"),
        ({"omega": [[False, True]]}, ["mintime"], "omega"),
        ({"M": [[True, False], [False, "0"]]}, ["mintime"], "M"),
        ({"Q0": "1"}, ["mintime"], "Q0"),
        ({"Q0": 1.0}, ["mintime"], "Q0"),
        ({"Q1": [True]}, ["mintime"], "Q1"),
        ({"Q1": [2.0]}, ["mintime"], "Q1"),
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "piecewise_linear", "x": [0, "1"], "v": [True, 2]}]},
         ["mintime"], "speeds[1].x"),
        ({"M": {"type": "piecewise_constant", "x": [0, "0.5", 1],
                "matrices": [[[0.0, 0.0], [0.0, 0.0]]] * 2}}, ["mintime"], "M.x"),
        ({"speeds": [{"type": "constant", "value": -1.0, "x": "junk", "v": {}},
                     {"type": "constant", "value": 1.0}]}, ["mintime"], "speeds[0]"),
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "piecewise_linear", "x": [0.0, 1.0], "v": [1.0, 2.0],
                      "value": "junk"}]}, ["mintime"], "speeds[1]"),
        ({}, ["canon", "--matrix", "[[true]]"], "--matrix"),
        ({}, ["canon", "--matrix", '[["1", 2]]'], "--matrix"),
        ({"speeds": [{"type": "constant", "value": -1.0},
                     {"type": "piecewise_linear", "x": [0.5, 0.2, 1.0], "v": [1.0, 2.0, 1.0]}]},
         ["mintime"], "speeds[1].x"),
    ], ids=["omega-strings", "omega-booleans", "M-mixed", "Q0-string", "Q0-scalar",
            "Q1-boolean-vector", "Q1-vector", "piecewise-speed-mixed", "source-x-string",
            "constant-stray-keys", "piecewise-stray-value", "matrix-boolean",
            "matrix-string", "piecewise-x-decreasing"])
    def test_lax_input_exits_2_naming_the_field(self, tmp_path, capsys, overrides,
                                                command, field):
        path = config_variant(tmp_path, "bad.json", **overrides)
        argv = command if command[0] == "canon" else command[:1] + ["--config", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {field}: ") and err.count("\n") == 1

    # one row per numeric field: a numeric string, a boolean and an integer
    # too large for a float are each refused, naming the field
    @pytest.mark.parametrize("overrides,leaf,field", [
        ({}, ("n",), "n"),
        ({}, ("m",), "m"),
        ({}, ("speeds", 0, "value"), "speeds[0].value"),
        (PIECEWISE_SPEED, ("speeds", 1, "x", 1), "speeds[1].x"),
        (PIECEWISE_SPEED, ("speeds", 1, "v", 1), "speeds[1].v"),
        ({}, ("M", 1, 0), "M"),
        (PIECEWISE_SOURCE, ("M", "x", 1), "M.x"),
        (PIECEWISE_SOURCE, ("M", "matrices", 1, 0, 1), "M.matrices"),
        ({}, ("Q0", 0, 0), "Q0"),
        ({}, ("Q1", 0, 0), "Q1"),
        ({}, ("omega", 0, 1), "omega"),
        ({}, ("grid", "cells"), "grid.cells"),
        ({}, ("grid", "cfl"), "grid.cfl"),
        (None, None, "--matrix"),
    ], ids=["n", "m", "speed-value", "speed-x", "speed-v", "M", "M-x", "M-matrices",
            "Q0", "Q1", "omega", "grid-cells", "grid-cfl", "canon-matrix"])
    def test_non_number_exits_2_naming_the_field(self, tmp_path, capsys, overrides,
                                                 leaf, field):
        for value in ("1", True, HUGE_INT):
            if leaf is None:
                argv = ["canon", "--matrix", json.dumps([[1.0, value]])]
            else:
                config = json.loads(json.dumps({**EXAMPLE1, **overrides}))
                set_leaf(config, leaf, value)
                path = tmp_path / "bad.json"
                path.write_text(json.dumps(config))
                argv = ["mintime", "--config", str(path)]
            assert main(argv) == 2, value
            err = capsys.readouterr().err
            assert err.startswith(f"ERROR: {field}: ") and err.count("\n") == 1, err

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


class TestMutation:
    @pytest.mark.parametrize("seed", MUTATION_SEEDS)
    def test_mutated_config_exits_with_a_code(self, tmp_path, seed):
        # every run exits 0 with nothing on stderr, or with a code from
        # EXIT_CODES and one ERROR: line; nothing escapes run
        rng = np.random.default_rng(seed)
        demo = json.loads((ROOT / "demos" / "example_2x2.json").read_text())
        demo["grid"]["cells"] = 24
        path = tmp_path / "mutant.json"
        parser = build_parser()
        failures = []
        for _ in range(MUTATION_TRIALS):
            config = json.loads(json.dumps(demo))
            for _ in range(1 + rng.integers(2)):
                paths = leaves(config)
                set_leaf(config, paths[rng.integers(len(paths))],
                         MUTANTS[rng.integers(len(MUTANTS))])
            command = MUTATION_COMMANDS[rng.integers(len(MUTATION_COMMANDS))]
            path.write_text(json.dumps(config))
            argv = command[:1] + ["--config", str(path)] + command[1:]
            if command[0] == "synthesize":
                argv += ["--out", str(tmp_path / "synth")]
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = run(parser.parse_args(argv), io.StringIO())
            except Exception as exc:  # anything raised is the failure under test
                failures.append((command[0], json.dumps(config)[:300], repr(exc)[:200]))
                continue
            text = err.getvalue()
            ok = (text == "" if code == 0 else
                  code in EXIT_CODES.values() and text.startswith("ERROR:")
                  and text.count("\n") == 1)
            if not ok:
                failures.append((command[0], json.dumps(config)[:300], code, text[:200]))
        assert not failures, failures[:3]


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

    # sha256 of the three files of `synthesize --T 0.6 --y0 sinpi --y1 zero`
    # and of its `simulate --u` replay, on the piecewise-source config above
    # with omega the whole domain: the control is the forward/backward blend
    # and its re-simulation marches with a forcing.  1x1 couplings and an
    # einsum source, so no BLAS call enters these bytes.
    def test_synthesize_golden_bytes(self, tmp_path):
        path = tmp_path / "cfg.json"
        config = json.loads((ROOT / "demos" / "example_2x2.json").read_text())
        speeds = [{"type": "piecewise_linear", "x": [0.0, 0.5, 1.0], "v": v}
                  for v in ([-1.0, -1.5, -1.0], [1.0, 2.0, 1.0])]
        path.write_text(json.dumps({**config, "speeds": speeds, "M": [[0.3, -0.2], [0.1, 0.4]],
                                    "omega": [[0.0, 1.0]]}))
        outdir = tmp_path / "synth"
        code, text = capture(["synthesize", "--config", str(path), "--T", "0.6",
                              "--y0", "sinpi", "--y1", "zero", "--out", str(outdir)])
        assert (code, text) == (0, "achieved_error = 0.0074692210625977333\n")
        digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in ("control.csv", "final_state.csv", "summary.txt")}
        assert digests == {
            "control.csv": "451eebea5537982dedeb8c9a33ea40bf500d491a86db73b03f77825d1a5e0a1f",
            "final_state.csv": "5175f2cc1fe616fce83ae118aa123fafa41713ad63710a5af1819539731363d3",
            "summary.txt": "cb4ad30695ca5002325ac0794567cb75863fd44d20660e51145cd10efa7f2aba",
        }
        code, text = capture(["simulate", "--config", str(path), "--T", "0.6", "--y0", "sinpi",
                              "--u", str(outdir / "control.csv")])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digests["final_state.csv"]
        assert text == (outdir / "final_state.csv").read_text()

    # stdout of `gramian --tmin 0.3 --steps 9` on the example.  --tmax 0.7
    # marches at Courant 1, where the Gramian is diagonal and no LAPACK call
    # enters: its sha256 is pinned.  --tmax 0.7234 marches at Courant 0.998,
    # where it is one dense 400x400 block, and eigvalsh's last digits follow
    # the BLAS thread count (up to 1.5e-15 on the positive sigma_min, and the
    # roundoff rows): its T column and threshold line are pinned exactly,
    # sigma_min within 1e-13 of the largest sigma, the bound of TestBlocks
    @pytest.mark.parametrize("tmax,golden", [
        ("0.7", "dec997bf93ed32bd84dabc53a60c70e3309b559f4937a7e52c352303cb6a04d6"),
        ("0.7234", "T,sigma_min\n"
                   "0.29999999999999999,-1.6204105511284586e-16\n"
                   "0.35292499999999999,-1.8156949694427996e-16\n"
                   "0.40584999999999999,-1.1499150994246689e-16\n"
                   "0.45877500000000004,-1.2199494461648064e-16\n"
                   "0.51170000000000004,0.008223329422808151\n"
                   "0.56462500000000004,0.029048105342880052\n"
                   "0.61755000000000004,0.049184791466131195\n"
                   "0.67047500000000004,0.065720309961477735\n"
                   "0.72340000000000004,0.082230453696232386\n"
                   "detected_threshold = 0.45877500000000004\n"),
    ], ids=["courant-1", "courant-0.998"])
    def test_gramian_golden_bytes(self, tmax, golden):
        code, text = capture(["gramian", "--config", str(ROOT / "demos" / "example_2x2.json"),
                              "--tmin", "0.3",
                              "--tmax", tmax, "--steps", "9"])
        assert code == 0
        if tmax == "0.7":
            assert hashlib.sha256(text.encode()).hexdigest() == golden
            return
        got, want = text.splitlines(), golden.splitlines()
        assert (got[0], got[-1]) == (want[0], want[-1])
        got, want = ([row.split(",") for row in lines[1:-1]] for lines in (got, want))
        assert [t for t, _ in got] == [t for t, _ in want]
        sigma, pinned = (np.array([float(v) for _, v in rows]) for rows in (got, want))
        assert np.max(np.abs(sigma - pinned)) <= 1e-13 * np.max(pinned)

    # stdout of `omegahat --eps 0.05` on the example: omega (0.25, 0.75)
    # shrinks by 0.125 / 2**3 on each side
    def test_omegahat_golden_bytes(self):
        code, text = capture(["omegahat", "--config", str(ROOT / "demos" / "example_2x2.json"),
                              "--eps", "0.05"])
        assert code == 0
        assert text == ("achieved_bound = 0.53125\ntarget_bound = 0.55000000000000004\n"
                        "lo,hi\n0.265625,0.734375\n")
