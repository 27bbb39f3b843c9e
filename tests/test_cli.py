"""Command-line interface: exit codes, file contents, determinism."""

import csv
import json

import pytest

from minmax_lab.cli import main

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
        assert result["schema"] == "minmax-lab/minimax-result/v2"
        worst = result["worst_case"]
        assert (worst["sup_method"], worst["grid_points"]) == ("endpoints", 2)
        assert abs(worst["argmax_theta"]) == 3.0

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
        assert (worst["sup_method"], worst["grid_points"]) == ("constant", 1)
        assert worst["argmax_theta"] == 0.5

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


class TestExclusivityCommand:
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

        _, rows = read_csv(out_dir / "alpha_ladder.csv")
        assert rows[0] == ["p", "q", "alpha", "delta_Rp", "delta_Rq"]
        alphas = [float(r[2]) for r in rows[1:]]
        assert alphas == sorted(alphas, reverse=True)
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

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
