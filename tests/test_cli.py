"""Command-line interface: exit codes, file contents, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from minmax_lab.cli import _COMMANDS, main
from minmax_lab.config import RETIRED_KEYS, SECTIONS

from oracles import quadpack_median_risk

BASE = """
    [model]
    n = 4
    sigma = 1.0

    [theta]
    lo = -3
    hi = 3

    [loss squared]
    kind = power
    p = 2

    [loss squared3x]
    kind = scaled
    factor = 3
    inner = squared

    [estimator mean]
    kind = affine_mean
    gamma = 1
    beta = 0

    [run]
    seed = 42
"""


def read_csv(path):
    comments, rows = [], []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line)
    return comments, list(csv.reader(rows))


class TestRiskCommand:
    def test_quadrature_rows(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [risk]
            estimator = mean
            loss = squared
            thetas = -1, 0, 1
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        comments, rows = read_csv(out_dir / "risk.csv")
        assert rows[0] == ["theta", "risk", "std_error"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(0.25, rel=1e-12)
        assert any("config_sha256=" in c for c in comments)
        assert any("minmax-lab" in c for c in comments)

    def test_scaled_loss_triples_risks(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [risk]
            estimator = mean
            loss = squared3x
            thetas = -1, 0, 1
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        _, rows = read_csv(out_dir / "risk.csv")
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(3 * 0.25, rel=1e-12)

    def test_missing_seed_with_monte_carlo(self, write_config, out_dir, capsys):
        cfg = write_config(
            """
            [model]
            n = 4

            [theta]
            lo = -3
            hi = 3

            [loss squared]
            kind = power
            p = 2

            [estimator mean]
            kind = affine_mean
            gamma = 1

            [risk]
            estimator = mean
            loss = squared
            thetas = 0
            method = monte_carlo
            samples = 1000
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_sign_perturbed_rule(self, write_config, out_dir, capsys):
        nudged = """
            [estimator nudged]
            kind = sign_perturbed
            base = mean
            epsilon = 0.2
            theta_star = 0.5
            """
        risk_section = "[risk]\nestimator = nudged\nloss = squared\nthetas = -1, 0.5, 2\n"
        cfg = write_config(BASE, nudged, risk_section + "method = monte_carlo\nsamples = 200000")
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        _, rows = read_csv(out_dir / "risk.csv")
        # oracle on fresh draws: the mean of n = 4 is theta + Z/2, stepped
        # by 0.2 toward theta_star
        z = np.random.default_rng(2024).standard_normal(2_000_000) / 2.0
        for theta, value, std_error in (map(float, row) for row in rows[1:]):
            est = theta + z
            oracle = np.mean((est + 0.2 * np.sign(0.5 - est) - theta) ** 2)
            assert abs(value - oracle) <= 4.0 * std_error
        assert len(rows) == 4

        cfg = write_config(BASE, nudged, risk_section + "method = quadrature", name="quad.cfg")
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir / "quad")]) == 2
        assert "has no exact Gaussian error law" in capsys.readouterr().err

    def test_even_theta_grid_spec(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [risk]
            estimator = mean
            loss = squared
            theta_lo = -2
            theta_hi = 2
            theta_count = 5
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        _, rows = read_csv(out_dir / "risk.csv")
        assert [float(r[0]) for r in rows[1:]] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_unknown_loss_name(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [risk]
            estimator = mean
            loss = nonexistent
            thetas = 0
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2

    def test_seed_flag_overrides_config(self, write_config, out_dir, tmp_path):
        cfg = write_config(
            BASE,
            """
            [risk]
            estimator = mean
            loss = squared
            thetas = 0
            method = monte_carlo
            samples = 2000
            """
        )
        other = tmp_path / "out2"
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["risk", "--config", str(cfg), "--out", str(other), "--seed", "43"]) == 0
        _, rows_a = read_csv(out_dir / "risk.csv")
        _, rows_b = read_csv(other / "risk.csv")
        assert rows_a[1][1] != rows_b[1][1]

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    def test_infinite_theta_is_config_error(self, write_config, out_dir, capsys, method):
        cfg = write_config(
            BASE,
            f"""
            [risk]
            estimator = mean
            loss = squared
            thetas = 0, inf
            method = {method}
            samples = 1000
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert "theta must be finite" in capsys.readouterr().err

    def test_overflowing_error_law_is_numerical_error(self, write_config, out_dir):
        # finite inputs, but mu = (gamma - 1) * theta overflows to inf
        cfg = write_config(
            BASE,
            """
            [estimator huge]
            kind = affine_mean
            gamma = 1e300

            [risk]
            estimator = huge
            loss = squared
            thetas = 1e10
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 3

    def test_median_quadrature_is_exact(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [estimator med]
            kind = sample_median
            beta = 0.1

            [risk]
            estimator = med
            loss = squared
            thetas = -1, 2
            method = quadrature
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        _, rows = read_csv(out_dir / "risk.csv")
        # the median's law is theta-free, and quadrature has no standard error
        assert rows[1][1] == rows[2][1]
        assert [row[2] for row in rows[1:]] == ["0.0", "0.0"]
        assert float(rows[1][1]) == pytest.approx(quadpack_median_risk(4, 0.1, 2.0), rel=1e-10)


MM_BASE = """
    [model]
    n = 1
    sigma = 1.0

    [theta]
    lo = -3
    hi = 3

    [loss squared]
    kind = power
    p = 2

    [loss quartic]
    kind = power
    p = 4

    [family]
    kind = affine_mean
    gamma_lo = 0
    gamma_hi = 1.5
    beta_lo = -1
    beta_hi = 1

    [run]
    seed = 7
"""


# a median_shift family; the config adds [theta] and the command's section
MEDIAN_MODEL = """
    [model]
    n = 5

    [loss squared]
    kind = power
    p = 2

    [family]
    kind = median_shift
    beta_lo = -1
    beta_hi = 1
"""


class TestMinimaxCommand:
    def test_bounded_l2(self, write_config, out_dir):
        cfg = write_config(
            MM_BASE,
            """
            [minimax]
            loss = squared
            restarts = 2
            grid = 64
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "minimax.json").read_text())
        result = doc["result"]
        assert result["best_params"][0] == pytest.approx(0.9, abs=0.005)
        assert result["minimax_value"] == pytest.approx(0.9, abs=0.005)
        assert result["converged"] is True
        assert doc["schema"] == "minmax-lab/cli-output/v1"
        assert result["schema"] == "minmax-lab/minimax-result/v6"
        worst = result["worst_case"]
        assert worst["sup_method"] == "endpoints"
        assert abs(worst["argmax_theta"]) == 3.0
        assert "refinement_tol" not in worst

    def test_misspelled_option_is_config_error(self, write_config, out_dir, capsys):
        cfg = write_config(
            MM_BASE,
            """
            [minimax]
            loss = squared
            maxiterr = 1
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "[minimax]" in err and "'maxiterr'" in err
        assert not (out_dir / "minimax.json").exists()

    def test_beta_star_is_never_negative_zero(self, write_config, out_dir):
        # on a symmetric interval beta* = (1 - gamma) * 0.0, which is -0.0 for gamma > 1
        cfg = write_config(
            MM_BASE.replace("gamma_lo = 0", "gamma_lo = 1.1"),
            """
            [minimax]
            loss = squared
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 0
        text = (out_dir / "minimax.json").read_text()
        assert "-0.0" not in text
        gamma, beta = json.loads(text)["result"]["best_params"]
        assert (gamma, math.copysign(1.0, beta), beta) == (1.1, 1.0, 0.0)

    def test_median_family_is_constant_in_theta(self, write_config, out_dir):
        cfg = write_config(
            """
            [model]
            n = 5

            [theta]
            lo = -2
            hi = 3

            [loss squared]
            kind = power
            p = 2

            [family]
            kind = median_shift
            beta_lo = -1
            beta_hi = 1

            [run]
            seed = 7

            [minimax]
            loss = squared
            restarts = 1
            mc_samples = 2000
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 0
        worst = json.loads((out_dir / "minimax.json").read_text())["result"]["worst_case"]
        assert worst["constant_in_theta"] is True
        assert worst["sup_method"] == "constant"
        assert worst["argmax_theta"] == 0.5

    def test_median_on_theta_range_whose_sum_overflows(self, write_config, out_dir):
        # lo + hi overflows, the midpoint does not, and the median's risk is theta-free
        cfg = write_config(
            MEDIAN_MODEL,
            """
            [theta]
            lo = 1e308
            hi = 1.7e308

            [minimax]
            loss = squared
            mc_samples = 2000
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir), "--seed", "1"]) == 0
        worst = json.loads((out_dir / "minimax.json").read_text())["result"]["worst_case"]
        assert (worst["sup_method"], worst["argmax_theta"]) == ("constant", 1.35e308)

    def test_empty_family_range(self, write_config, out_dir):
        cfg = write_config(
            MM_BASE.replace("gamma_hi = 1.5", "gamma_hi = 0"),
            """
            [minimax]
            loss = squared
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 2

    def test_rerun_byte_identical(self, write_config, out_dir, tmp_path):
        cfg = write_config(
            MM_BASE,
            """
            [minimax]
            loss = squared
            restarts = 2
            grid = 64
            """
        )
        other = tmp_path / "out2"
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["minimax", "--config", str(cfg), "--out", str(other)]) == 0
        assert (out_dir / "minimax.json").read_bytes() == (other / "minimax.json").read_bytes()

    def test_nonconverged_exits_4_and_still_writes(self, write_config, out_dir, tmp_path):
        cfg = write_config(
            MM_BASE,
            """
            [minimax]
            loss = squared
            restarts = 2
            grid = 32
            maxiter = 1
            """
        )
        assert main(["minimax", "--config", str(cfg), "--out", str(out_dir)]) == 4
        assert json.loads((out_dir / "minimax.json").read_text())["result"]["converged"] is False
        other = tmp_path / "out2"
        argv = ["minimax", "--config", str(cfg), "--out", str(other), "--allow-nonconverged"]
        assert main(argv) == 0
        assert (other / "minimax.json").read_bytes() == (out_dir / "minimax.json").read_bytes()


def test_median_family_runs_without_a_seed_byte_identically(write_config, tmp_path):
    # no solve or certificate of the median family draws a sample, so none
    # needs a seed; the retired mc_samples is still accepted and ignored
    theta = "[theta]\nlo = -3\nhi = 3"
    for command, section in (("minimax", "[minimax]\nloss = squared\nmc_samples = 0"),
                             ("exclusivity", "[exclusivity]\nexponents = 2, 4")):
        cfg = write_config(MEDIAN_MODEL, theta, section, name=f"{command}.cfg")
        first, second = tmp_path / f"{command}1", tmp_path / f"{command}2"
        for out in (first, second):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        assert all((first / name).read_bytes() == (second / name).read_bytes() for name in names)
    doc = json.loads((tmp_path / "minimax1" / "minimax.json").read_text())
    assert doc["seed"] is None
    result = doc["result"]
    assert (result["best_params"], result["search_iterations"], result["converged"]) == (
        [0.0], 0, True)


class TestExclusivityCommand:
    def test_nonconverged_class_solve_exits_4_and_still_writes(
        self, write_config, out_dir, tmp_path, capsys
    ):
        # maxiter = 1 stops both class searches at their first point
        cfg = write_config(MM_BASE, "[exclusivity]\nexponents = 2, 4\nmaxiter = 1")
        assert main(["exclusivity", "--config", str(cfg), "--out", str(out_dir)]) == 4
        assert "did not converge" in capsys.readouterr().err
        other = tmp_path / "out2"
        argv = ["exclusivity", "--config", str(cfg), "--out", str(other), "--allow-nonconverged"]
        assert main(argv) == 0
        for name in ("exclusivity.json", "alpha_ladder.csv"):
            assert (other / name).read_bytes() == (out_dir / name).read_bytes()

    def test_bounded_pair(self, write_config, out_dir):
        cfg = write_config(
            MM_BASE,
            """
            [exclusivity]
            exponents = 2, 4
            restarts = 2
            grid = 64
            """
        )
        assert main(["exclusivity", "--config", str(cfg), "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "exclusivity.json").read_text())
        report = doc["result"]
        assert report["pairwise_disjoint"] is True
        assert report["witnesses"][0]["verdict"] == "Refuted"

        witness = report["witnesses"][0]
        assert witness["schema"] == "minmax-lab/refutation-certificate/v3"
        assert witness["direction"] == [-1.0]
        assert len(witness["gradient_q"]) == 1

        _, rows = read_csv(out_dir / "alpha_ladder.csv")
        assert rows[0] == ["p", "q", "alpha", "delta_Rp", "delta_Rq"]
        alphas = [float(r[2]) for r in rows[1:]]
        assert alphas == sorted(alphas, reverse=True)
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_face_optimum_is_a_stationary_verdict(self, write_config, out_dir):
        # both optima sit on the face gamma = 0.85, and the quartic descent
        # step points out of the box there
        cfg = write_config(
            MM_BASE.replace("gamma_hi = 1.5", "gamma_hi = 0.85"),
            """
            [exclusivity]
            exponents = 2, 4
            """
        )
        assert main(["exclusivity", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "exclusivity.json").read_text())["result"]
        assert [c["params"] for c in report["classes"]] == [[0.85, 0.0], [0.85, 0.0]]
        (witness,) = report["witnesses"]
        assert witness["verdict"] == "StationaryBoth"
        assert (witness["ladder"], witness["direction"]) == ([], [0.0])
        assert report["pairwise_disjoint"] is False
        _, rows = read_csv(out_dir / "alpha_ladder.csv")
        assert rows == [["p", "q", "alpha", "delta_Rp", "delta_Rq"]]

    def test_unknown_option_is_config_error(self, write_config, out_dir, capsys):
        cfg = write_config(
            MM_BASE,
            """
            [exclusivity]
            exponents = 2, 4
            halvngs = 2
            """
        )
        assert main(["exclusivity", "--config", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "[exclusivity]" in err and "'halvngs'" in err

    def test_option_and_retired_keys_are_accepted(self, write_config, out_dir):
        # the retired solver keys are still read (and ignored) from old configs
        cfg = write_config(
            MM_BASE,
            """
            [exclusivity]
            exponents = 2, 4
            restarts = 1
            grid = 32
            refine_tol = 1e-6
            fatol = 1e-9
            agreement_tol = 1e-3
            maxiter = 50
            mc_samples = 1000
            halvings = 3
            """
        )
        assert main(["exclusivity", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "exclusivity.json").read_text())["result"]
        assert len(report["witnesses"][0]["ladder"]) <= 4

    def test_single_exponent_is_config_error(self, write_config, out_dir):
        cfg = write_config(
            MM_BASE,
            """
            [exclusivity]
            exponents = 2
            """
        )
        assert main(["exclusivity", "--config", str(cfg), "--out", str(out_dir)]) == 2


class TestShiftRiskCommand:
    def test_quadratic_sweep(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [shift_risk]
            q = 2
            n = 1
            alphas = 0, 0.25, 0.5
            """
        )
        assert main(["shift-risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        comments, rows = read_csv(out_dir / "shift_risk.csv")
        assert rows[0] == ["alpha", "risk", "deriv_analytic", "deriv_fd"]
        values = [float(r[1]) for r in rows[1:]]
        assert values == pytest.approx([1.0, 1.0625, 1.25], rel=1e-9)
        # the zero-shift row has zero derivative both ways
        assert abs(float(rows[1][2])) < 1e-8
        assert abs(float(rows[1][3])) < 1e-8
        # the analytic and finite-difference columns agree everywhere
        for row in rows[1:]:
            assert abs(float(row[2]) - float(row[3])) < 1e-5
        # the computed derivative sign is surfaced as an output flag
        assert any(c.startswith("# deriv_sign_for_positive_shift=") for c in comments)

    def test_rerun_byte_identical(self, write_config, out_dir, tmp_path):
        cfg = write_config(
            BASE,
            """
            [shift_risk]
            q = 2.2
            alphas = 0, 0.5, 1.0
            """
        )
        other = tmp_path / "out2"
        assert main(["shift-risk", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["shift-risk", "--config", str(cfg), "--out", str(other)]) == 0
        assert (out_dir / "shift_risk.csv").read_bytes() == (other / "shift_risk.csv").read_bytes()


class TestClassifyCommand:
    def test_table(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [loss mix]
            kind = sum
            terms = heavy, cubic

            [loss heavy]
            kind = power
            p = 1.5
            c = 3

            [loss cubic]
            kind = power
            p = 3

            [loss robust]
            kind = huber
            k = 1.0

            [classify]
            losses = squared, mix, robust
            window_lo = 1e-5
            window_hi = 1e-3
            """
        )
        assert main(["classify", "--config", str(cfg), "--out", str(out_dir)]) == 0
        _, rows = read_csv(out_dir / "classify.csv")
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert table["squared"][0] == pytest.approx(2.0, abs=1e-6)
        assert table["squared"][1] == pytest.approx(1.0, abs=1e-6)
        assert table["mix"][0] == pytest.approx(1.5, abs=0.01)
        assert table["mix"][1] == pytest.approx(3.0, rel=0.02)
        assert table["robust"][0] == pytest.approx(2.0, abs=0.01)
        assert table["robust"][1] == pytest.approx(0.5, rel=0.02)

    def test_degenerate_loss_is_numerical_error(self, write_config, out_dir):
        cfg = write_config(
            BASE,
            """
            [loss spike]
            kind = power
            p = 3000

            [classify]
            losses = spike
            """
        )
        assert main(["classify", "--config", str(cfg), "--out", str(out_dir)]) == 3


class TestConfigErrors:
    def test_missing_model_section(self, write_config, out_dir):
        cfg = write_config("[theta]\nlo = 0\nhi = 1\n")
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2

    def test_loss_reference_cycle(self, write_config, out_dir):
        cfg = write_config(
            """
            [model]
            n = 1

            [theta]
            lo = -1
            hi = 1

            [loss a]
            kind = scaled
            factor = 2
            inner = b

            [loss b]
            kind = scaled
            factor = 3
            inner = a

            [risk]
            estimator = mean
            loss = a
            thetas = 0
            """
        )
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2

    def test_nonexistent_config_file(self, tmp_path, out_dir):
        assert main(["risk", "--config", str(tmp_path / "nope.cfg"), "--out", str(out_dir)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[model]\nn = 1\n[model]\n", "line 3: section [model] appears twice"),
        ("[model]\nn = 1\nN = 2\n", "line 3: key 'n' appears twice in [model]"),
        ("n = 1\n[model]\n", "line 1: 'n = 1' comes before any [section] header"),
        ("[model]\nn = 1\nsigma 2\n", "line 3: 'sigma 2' has no '=' or ':'"),
        ("[model]\n  = 1\n", "line 2: '= 1' has no key before '='"),
    ])
    def test_parse_error_names_file_and_line(self, text, message, write_config, out_dir,
                                             capsys):
        cfg = write_config(text)
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert f"config parse error in {cfg}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_default_section_is_unknown(self, write_config, out_dir, capsys):
        # an empty one too: it is not folded into the other sections
        cfg = write_config(ALL_SECTIONS, "[DEFAULT]\n")
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_that_is_not_utf8(self, tmp_path, out_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(ALL_SECTIONS.replace("seed = 7", "seed = \xff7").encode("latin-1"))
        assert main(["risk", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert f"cannot read config {cfg}: 'utf-8' codec" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_naming_a_file(self, write_config, tmp_path, capsys):
        cfg = write_config(ALL_SECTIONS)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main(["risk", "--config", str(cfg), "--out", str(taken)]) == 2
        assert f"--out directory {taken}" in capsys.readouterr().err
        assert taken.read_text() == "kept"


# Every command's section on top of MM_BASE, so that one line added to any
# section can be run through the command that reads it.
ALL_SECTIONS = textwrap.dedent(MM_BASE) + textwrap.dedent(
    """
    [estimator mean]
    kind = affine_mean
    gamma = 1

    [risk]
    estimator = mean
    loss = squared
    thetas = 0

    [minimax]
    loss = squared

    [exclusivity]
    exponents = 2, 4

    [shift_risk]
    q = 2
    alphas = 0

    [classify]
    losses = squared
    """
)

# Keys that would name method constants: the code uses a fixed value, so a
# config that sets one is refused rather than ignored.
REMOVED_KEYS = [
    ("minimax", "minimax", "xatol = 1e-5"),
    ("minimax", "minimax", "quad_nodes = 200"),
    ("exclusivity", "exclusivity", "xatol = 1e-5"),
    ("exclusivity", "exclusivity", "quad_nodes = 200"),
    ("exclusivity", "exclusivity", "fd_step = 0"),
    ("exclusivity", "exclusivity", "alpha0 = 0"),
    ("exclusivity", "exclusivity", "taylor_points = 4"),
    ("exclusivity", "exclusivity", "stationarity_rtol = 1e-2"),
    ("exclusivity", "exclusivity", "min_exponent_gap = 0.05"),
    ("risk", "risk", "nodes = 200"),
    ("shift-risk", "shift_risk", "nodes = 200"),
    ("shift-risk", "shift_risk", "fd_step = 1e-5"),
]

# A stray key in each kind of section.
STRAY_KEYS = [
    ("risk", "model", "sigm = 4.0"),
    ("risk", "theta", "mid = 0"),
    ("risk", "run", "sed = 1"),
    ("risk", "loss squared", "cc = 5"),
    ("risk", "loss squared", "k = 1"),  # a huber key on a power loss
    ("risk", "estimator mean", "bta = 0.5"),
    ("risk", "estimator mean", "epsilon = 0.1"),  # a sign_perturbed key
    ("risk", "risk", "sampels = 10"),
    ("minimax", "family", "gamma = 1"),
    ("shift-risk", "shift_risk", "alpha = 1"),
    ("classify", "classify", "window = 1e-3"),
]

# Values of the remaining knobs outside their ranges.
OUT_OF_RANGE = [
    ("minimax", "minimax", "maxiter = 0"),
    ("minimax", "minimax", "maxiter = -3"),
    ("exclusivity", "exclusivity", "maxiter = 0"),
    ("shift-risk", "shift_risk", "n = 0"),
]


class TestEveryKeyIsChecked:
    @pytest.mark.parametrize(
        "command, section, line", REMOVED_KEYS + STRAY_KEYS + OUT_OF_RANGE
    )
    def test_exits_2_naming_section_and_key(
        self, command, section, line, write_config, out_dir, capsys
    ):
        header = f"[{section}]\n"
        cfg = write_config(ALL_SECTIONS.replace(header, header + line + "\n", 1))
        assert main([command, "--config", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert f"[{section}]" in err and key in err
        assert not out_dir.exists() or not any(out_dir.iterdir())


# Misspelled sections, each once ignored by every command that did not
# require the section.
MISSPELLED_SECTIONS = ["[classfy]\nlosses = squared", "[rn]\nseed = 1", "[minmax]\nloss = squared"]

FAMILY = "[family]\nkind = affine_mean\ngamma_lo = 0\ngamma_hi = 1.5\nbeta_lo = -1\nbeta_hi = 1\n"
MC_RISK = "[risk]\nestimator = mean\nloss = squared\nthetas = 0\nmethod = monte_carlo\nsamples = 10"
MEDIAN_SOLVE = "[family]\nkind = median_shift\nbeta_lo = -1\nbeta_hi = 1\n[minimax]\nloss = squared"
# an integer n beyond the float range, whose sigma / sqrt(n) once overflowed
HUGE_N = "n = 1" + "0" * 400
STEEP_LOSS = "[loss steep]\nkind = power\np = 150\n"

# Values that once crashed, ran, or failed without naming their section.
# A command with a flag runs with that flag; a section a case sets
# replaces the one of BASE.
BAD_VALUES = [
    ("risk", "[risk]\nestimator = mean\nloss = squared\nthetas = 0\nmethod = monte_carlo\n"
             "samples = 0", 2, "[risk]: samples must be >= 1"),
    ("shift-risk", "[shift_risk]\nq = 1\nalphas = 0", 2, "[shift_risk]: q must be > 1"),
    ("shift-risk", "[shift_risk]\nq = 2%\nalphas = 0", 2, "[shift_risk] q = '2%' is not a number"),
    ("shift-risk", "[shift_risk]\nq = 2\nalphas = 0, inf", 2, "[shift_risk]: alpha must be finite"),
    pytest.param("shift-risk", "[shift_risk]\nq = 4\nalphas = 1e100", 3,
                 "numerical error: risk is not finite",
                 marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    ("classify", "[classify]\nlosses = squared\npoints = 4", 2,
     "[classify]: need at least 8 fit points"),
    ("exclusivity", FAMILY + "[exclusivity]\nexponents = 2, inf", 2,
     "[exclusivity]: all exponents must be finite"),
    ("exclusivity", FAMILY + "[exclusivity]\nexponents = nan, 2", 2,
     "[exclusivity]: all exponents must be finite"),
    ("risk", "[run]\nseed = -1\n" + MC_RISK, 2, "[run] seed must be >= 0"),
    ("minimax", "[run]\nseed = -1\n" + MEDIAN_SOLVE, 2, "[run] seed must be >= 0"),
    ("risk --seed -1", MC_RISK, 2, "--seed must be >= 0"),
    ("minimax --seed -1", MEDIAN_SOLVE, 2, "--seed must be >= 0"),
    ("risk", f"[model]\n{HUGE_N}\n[risk]\nestimator = mean\nloss = squared\nthetas = 0", 2,
     "[model]: n must be at most the largest float"),
    ("minimax", f"[model]\n{HUGE_N}\n{FAMILY}[minimax]\nloss = squared", 2,
     "[model]: n must be at most the largest float"),
    ("shift-risk", f"[model]\n{HUGE_N}\n[shift_risk]\nq = 2\nalphas = 0", 2,
     "[model]: n must be at most the largest float"),
    ("shift-risk", f"[shift_risk]\n{HUGE_N}\nq = 2\nalphas = 0", 2,
     "[shift_risk]: n must be at most the largest float"),
    # a power above the quadrature's exponent bound is refused before any
    # risk is integrated, where the truncated kernel would understate it
    ("risk", STEEP_LOSS + "[risk]\nestimator = mean\nloss = steep\nthetas = 0", 3,
     "numerical error: a power exponent of 150.0 is above 100.0"),
    ("minimax", STEEP_LOSS + FAMILY + "[minimax]\nloss = steep", 3,
     "numerical error: a power exponent of 150.0 is above 100.0"),
    ("shift-risk", "[shift_risk]\nq = 150\nalphas = 0", 3,
     "numerical error: a power exponent of 150.0 is above 100.0"),
    # a family range whose width overflows, which the search steps through
    ("minimax", "[family]\nkind = affine_mean\ngamma_lo = -1e308\ngamma_hi = 1e308\n"
                "beta_lo = -1\nbeta_hi = 1\n[minimax]\nloss = squared",
     2, "[family]: gamma range [-1e+308, 1e+308] is too wide"),
    ("minimax", "[family]\nkind = median_shift\nbeta_lo = -1e308\nbeta_hi = 1e308\n"
                "[minimax]\nloss = squared",
     2, "[family]: beta range [-1e+308, 1e+308] is too wide"),
    # every worst case is finite (R_4 = 4.1e307), but the q-slope overflows:
    # the slope pass is a numerical error, not a JSON encoding error
    pytest.param("exclusivity", "[model]\nn = 1\n[theta]\nlo = -2e77\nhi = 2e77\n"
                 "[family]\nkind = affine_mean\ngamma_lo = 0.5\ngamma_hi = 0.6\n"
                 "beta_lo = -1\nbeta_hi = 1\n[exclusivity]\nexponents = 2, 4",
                 3, "numerical error: risk derivative is not finite",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    # the risk overflows before a non-finite value can reach the search: on
    # this gamma range no rule has gamma = 1, the only finite worst case
    pytest.param("minimax", "[theta]\nlo = -1e100\nhi = 1e100\n[loss quartic]\nkind = power\n"
                 "p = 4\n" + FAMILY.replace("gamma_hi = 1.5", "gamma_hi = 0.5")
                 + "[minimax]\nloss = quartic", 3,
                 "numerical error: risk is not finite",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
]


def base_without(section: str) -> str:
    """BASE less the sections the case sets itself."""
    heads = set(re.findall(r"^\[[^]]+\]", section, re.M))
    blocks = textwrap.dedent(BASE).split("\n\n")
    return "\n\n".join(b for b in blocks if b.strip().partition("\n")[0] not in heads)


class TestEverySectionIsChecked:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("section", MISSPELLED_SECTIONS, ids=lambda s: s.split("\n")[0])
    def test_unknown_section_exits_2_under_every_command(
        self, command, section, write_config, out_dir, capsys
    ):
        cfg = write_config(ALL_SECTIONS, section)
        assert main([command, "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert section.split("\n")[0] in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("command, section, code, message", BAD_VALUES,
                             ids=lambda v: v.rpartition("\n")[2] if isinstance(v, str) else None)
    def test_bad_value_names_its_section_and_prints_nothing(
        self, command, section, code, message, write_config, out_dir, capsys
    ):
        cfg = write_config(base_without(section), section)
        assert main([*command.split(), "--config", str(cfg), "--out", str(out_dir)]) == code
        out, err = capsys.readouterr()
        assert message in err and out == ""
        assert not out_dir.exists() or not any(out_dir.iterdir())


SRC = Path(__file__).resolve().parents[1] / "src"


def test_solving_commands_never_import_scipy(tmp_path):
    # importing scipy.optimize took about 0.55 s of every command's start-up
    # the median family's exact law is computed with math.erfc, not scipy
    (tmp_path / "affine.cfg").write_text(ALL_SECTIONS)
    (tmp_path / "median.cfg").write_text(
        textwrap.dedent(MEDIAN_MODEL) + "[theta]\nlo = -3\nhi = 3\n"
        "[minimax]\nloss = squared\n[exclusivity]\nexponents = 2, 4\n")
    script = textwrap.dedent(f"""
        import sys
        from minmax_lab.cli import main
        for family in ("affine", "median"):
            for command in ("minimax", "exclusivity"):
                cfg = {str(tmp_path)!r} + "/" + family + ".cfg"
                out = {str(tmp_path)!r} + "/" + family + "-" + command
                assert main([command, "--config", cfg, "--out", out]) == 0
        print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # the commands print above it
    for family in ("affine", "median"):
        assert (tmp_path / f"{family}-minimax" / "minimax.json").exists()
        assert (tmp_path / f"{family}-exclusivity" / "exclusivity.json").exists()


def test_no_command_imports_configparser(tmp_path):
    # constructing and querying a ConfigParser cost more than a solve; the
    # tests keep it as the oracle of config.read_ini
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ALL_SECTIONS)
    script = textwrap.dedent(f"""
        import sys
        from minmax_lab.cli import _COMMANDS, main
        for command in _COMMANDS:
            out = {str(tmp_path)!r} + "/" + command
            assert main([command, "--config", {str(cfg)!r}, "--out", out]) == 0
        print("configparser" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"  # the commands print above it


# Every JSON document's tag and keys, in order.  A record's fields are its
# keys, so renaming, adding, dropping or moving a field fails here until the
# record's tag is bumped and this table follows it.
ENVELOPE = ("minmax-lab/cli-output/v1",
            ["schema", "tool_version", "command", "config_sha256", "seed", "result"])
MINIMAX_RESULT = ("minmax-lab/minimax-result/v6",
                  ["schema", "best_params", "minimax_value", "worst_case",
                   "search_iterations", "converged"])
WORST_CASE = ["sup_value", "argmax_theta", "sup_method", "constant_in_theta"]
PARTITION_REPORT = ("minmax-lab/partition-report/v1",
                    ["schema", "classes", "pairwise_disjoint", "witnesses", "param_distances"])
CLASS_SUMMARY = ["exponent", "params", "value"]
CERTIFICATE = ("minmax-lab/refutation-certificate/v3",
               ["schema", "p", "q", "delta_star_params", "gradient_q", "gradient_p_norm",
                "direction", "alpha", "delta_Rq", "delta_Rp", "taylor_slope_p", "verdict",
                "ladder"])
LADDER_POINT = ["alpha", "delta_Rp", "delta_Rq"]


def test_every_schema_pins_its_key_order(write_config, tmp_path):
    def run(name, command, *parts):
        out = tmp_path / name
        cfg = write_config(*parts, name=f"{name}.cfg")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        (path,) = out.glob("*.json")
        doc = json.loads(path.read_text())
        assert (doc["schema"], list(doc)) == ENVELOPE
        return doc["result"]

    def tagged(doc):
        return doc["schema"], list(doc)

    affine = run("affine", "minimax", MM_BASE, "[minimax]\nloss = squared")
    median = run("median", "minimax", MEDIAN_MODEL,
                 "[theta]\nlo = -2\nhi = 3\n[run]\nseed = 7\n[minimax]\nloss = squared\n"
                 "mc_samples = 2000")
    for result in (affine, median):
        assert tagged(result) == MINIMAX_RESULT
        assert list(result["worst_case"]) == WORST_CASE
    assert (affine["worst_case"]["sup_method"], median["worst_case"]["sup_method"]) == (
        "endpoints", "constant")

    report = run("pair", "exclusivity", MM_BASE, "[exclusivity]\nexponents = 2, 4")
    assert tagged(report) == PARTITION_REPORT
    assert [list(c) for c in report["classes"]] == [CLASS_SUMMARY] * 2
    (witness,) = report["witnesses"]
    assert tagged(witness) == CERTIFICATE
    assert witness["ladder"] and all(list(pt) == LADDER_POINT for pt in witness["ladder"])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_ini() -> str:
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    return block


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_readme_config_runs_every_command(command, tmp_path):
    # the documented keys and the accepted keys must not drift apart
    block = readme_ini()
    # an ignored key is not documented as a knob
    assert not re.findall(rf"^\s*({'|'.join(RETIRED_KEYS)})\s*=", block, re.M)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_readme_config_names_every_key():
    # every key a config may set, but the retired ones, is documented in a
    # section that takes it (a comment naming it counts)
    text = defaultdict(str)
    for header, body in re.findall(r"^\[([^]]+)\]\n(.*?)(?=^\[|\Z)", readme_ini(), re.S | re.M):
        text[header.partition(" ")[0]] += body
    missing = [
        f"[{head}] {key}"
        for head, keys in SECTIONS.items()
        for key in (
            ("kind", *(k for kind in keys.values() for k in kind))
            if isinstance(keys, dict) else keys
        )
        if key not in RETIRED_KEYS and not re.search(rf"\b{key}\b", text[head])
    ]
    assert missing == []
