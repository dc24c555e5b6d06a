import json
from fractions import Fraction

import pytest

import shrinkdisc.cli
import shrinkdisc.solver
from shrinkdisc import fixtures
from shrinkdisc.cli import main
from shrinkdisc.dsl import build_operator
from shrinkdisc.growth import bound_violation
from shrinkdisc.series import SeriesTZ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_geometric_verdicts(self, tmp_path, capsys):
        code, out, _err = run(
            capsys,
            "analyze",
            "--fixture",
            "geometric",
            "--N",
            "10",
            "--K",
            "10",
            "--grid",
            "32,32",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["conditions"]["a"]["holds"] is True
        assert data["conditions"]["b"]["holds"] is True
        assert data["conditions"]["b"]["s"] == "0"
        assert data["conditions"]["c"]["verdict"] == "certified_strong"
        assert data["conditions"]["c"]["C0"] == "1"
        assert data["exponents"]["alpha"] == "1"
        assert data["corollary_gs_extension"] is False
        assert (tmp_path / "analysis.json").exists()

    def test_constant_diagonal_extends(self, tmp_path, capsys):
        code, out, _err = run(
            capsys,
            "analyze",
            "--fixture",
            "constant-diagonal:4",
            "--N",
            "10",
            "--K",
            "10",
            "--grid",
            "32,32",
            "--out-dir",
            str(tmp_path),
        )
        data = json.loads(out)
        assert data["exponents"]["alpha"] == "0"
        assert data["exponents"]["s"] == "1"
        assert data["conditions"]["c"]["C0"] == "2"
        assert data["corollary_gs_extension"] is True

    def test_resonant_toy(self, tmp_path, capsys):
        op = tmp_path / "op.txt"
        op.write_text("z*dz - 5\n")
        code, out, _err = run(
            capsys,
            "analyze",
            "--operator",
            str(op),
            "--grid",
            "16,16",
            "--out-dir",
            str(tmp_path / "out"),
        )
        assert code == 0
        data = json.loads(out)
        assert data["conditions"]["c"]["verdict"] == "resonant"
        assert data["conditions"]["c"]["witness"] == [0, 5]

    def test_s_override_changes_condition_b(self, tmp_path, capsys):
        # derived s = 1 passes; a stricter supplied s demands slope >= 3
        code, out, _err = run(
            capsys,
            "analyze",
            "--fixture",
            "constant-diagonal:4",
            "--s",
            "1/3",
            "--grid",
            "16,16",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["s_derived"] == "1"
        assert data["s_active"] == "1/3"
        assert data["conditions"]["b"]["holds"] is False
        # exponents still come from the operator's own geometry
        assert data["exponents"]["alpha"] == "0"

    def test_operator_file_with_params(self, tmp_path, capsys):
        (tmp_path / "op.txt").write_text("p0*dt + p0*z*dz\n")
        (tmp_path / "params.json").write_text(
            json.dumps({"p0": {"N": 8, "K": 8, "coeffs": [[0, 0, "2"], [1, 0, "1/2"]]}})
        )
        code, out, _err = run(
            capsys,
            "analyze",
            "--operator",
            str(tmp_path / "op.txt"),
            "--params",
            str(tmp_path / "params.json"),
            "--grid",
            "16,16",
            "--out-dir",
            str(tmp_path / "out"),
        )
        assert code == 0
        assert json.loads(out)["m"] == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        for d in ("a", "b"):
            run(
                capsys,
                "analyze",
                "--fixture",
                "geometric",
                "--N",
                "8",
                "--K",
                "8",
                "--grid",
                "16,16",
                "--out-dir",
                str(tmp_path / d),
            )
        assert (tmp_path / "a" / "analysis.json").read_bytes() == (
            tmp_path / "b" / "analysis.json"
        ).read_bytes()

    def test_solve_fit_round_trip_files(self, tmp_path, capsys):
        code, _out, _err = run(
            capsys,
            "solve",
            "--fixture",
            "geometric",
            "--N",
            "12",
            "--K",
            "32",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        sol = tmp_path / "solution.csv"
        assert sol.read_text().splitlines()[0] == "n,k,numerator,denominator"
        code, out, _err = run(
            capsys,
            "fit",
            "--solution",
            str(sol),
            "--s",
            "0",
            "--alpha",
            "1",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["alpha_hat"] - 1) < 0.05
        assert (tmp_path / "radii.csv").read_text().splitlines()[0] == "n,r_hat"
        assert data["bounds"]["B"] is not None

    @pytest.mark.parametrize("N, K", [(8, 9), (12, 33)])
    def test_fit_orders_keeps_trailing_zero_column(self, N, K, tmp_path, capsys, monkeypatch):
        # u(n, k) of geometric_general(2, 2) vanishes at odd k, so the
        # solved table ends in an all-zero column that only --orders keeps
        code, _out, _err = run(
            capsys, "solve", "--fixture", "geometric-general:2:2", "--N", str(N), "--K", str(K),
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        src, params = fixtures.geometric_general(2, 2)
        P = build_operator(src, params, N, K)
        solved = shrinkdisc.solver.solve_full(P, 0, fixtures.unit_column_rhs(N, K)).u
        sol = tmp_path / "solution.csv"
        assert SeriesTZ.from_csv(sol.read_text()) != solved

        seen = []
        fit = shrinkdisc.cli.analyze_table

        def recording_fit(u, *args, **kwargs):
            seen.append(u)
            return fit(u, *args, **kwargs)

        monkeypatch.setattr(shrinkdisc.cli, "analyze_table", recording_fit)
        code, _out, _err = run(
            capsys, "fit", "--solution", str(sol), "--orders", f"{N},{K}", "--s", "0",
            "--out-dir", str(tmp_path / "fit"),
        )
        assert seen == [solved]
        assert code == (1 if K == 9 else 0)  # 8 x 9 holds too few radii for the fit itself


class TestErrors:
    def test_resonance_error_json(self, tmp_path, capsys):
        op = tmp_path / "op.txt"
        op.write_text("z*dz - 5\n")
        code, _out, err = run(
            capsys,
            "solve",
            "--operator",
            str(op),
            "--N",
            "8",
            "--K",
            "8",
            "--out-dir",
            str(tmp_path / "out"),
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "ResonanceError"
        assert data["detail"] == {"n": 0, "k": 5}

    def test_syntax_error_json(self, tmp_path, capsys):
        op = tmp_path / "op.txt"
        op.write_text("dt**t\n")
        code, _out, err = run(
            capsys,
            "analyze",
            "--operator",
            str(op),
            "--out-dir",
            str(tmp_path / "out"),
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "OperatorSyntaxError"
        assert "line 1" in data["message"]

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--badflag"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize("grid", ["3", "a,b", "4,4,4", ""])
    def test_malformed_grid_is_usage_error(self, grid, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--fixture", "geometric", "--grid", grid, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        data = json.loads(capsys.readouterr().err)
        assert data["error"] == "UsageError"
        assert "--grid" in data["message"]

    def test_small_grid_reaches_certify(self, tmp_path, capsys):
        code, _out, err = run(
            capsys, "analyze", "--fixture", "geometric", "--grid", "4,4", "--out-dir", str(tmp_path)
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "ValueError"
        assert ">= 8" in data["message"]

    @pytest.mark.parametrize(
        "fixture",
        [
            "geometric:3",
            "geometric:",
            "geometric-general:3",
            "geometric-general:3:2:1",
            "geometric-general:a:2",
            "constant-diagonal:4:5",
            "constant-diagonal:x",
            "constant-diagonal:1/2",
            "nosuch",
        ],
    )
    def test_bad_fixture_spec(self, fixture, tmp_path, capsys):
        code, _out, err = run(
            capsys, "analyze", "--fixture", fixture, "--grid", "16,16", "--out-dir", str(tmp_path)
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "CliError"
        assert fixture in data["message"]

    @pytest.mark.parametrize("fixture", ["geometric-general:2:1", "constant-diagonal:5"])
    def test_good_fixture_spec(self, fixture, tmp_path, capsys):
        code, _out, _err = run(
            capsys, "analyze", "--fixture", fixture, "--N", "6", "--K", "6",
            "--grid", "16,16", "--out-dir", str(tmp_path),
        )
        assert code == 0

    def test_residual_mismatch_is_error(self, tmp_path, capsys, monkeypatch):
        div = shrinkdisc.solver._div
        monkeypatch.setattr(
            shrinkdisc.solver, "_div", lambda num, den: div(num, den) + (div(num, den) == 125)
        )
        code, out, err = run(
            capsys, "solve", "--fixture", "geometric", "--N", "8", "--K", "8",
            "--out-dir", str(tmp_path),
        )
        assert code == 1 and out == ""
        data = json.loads(err)
        assert data["error"] == "ResidualError"
        assert data["detail"] == {"n": 4, "k": 3}
        assert not (tmp_path / "solve.json").exists()

    def test_no_check_residual_reported(self, tmp_path, capsys):
        code, out, _err = run(
            capsys, "solve", "--fixture", "geometric", "--N", "6", "--K", "6",
            "--no-check-residual", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["residual_checked"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["sharpness", "--fixture", "geometric", "--rows", "2"],
            ["fit", "--solution", "x.csv", "--window-k", "1,b"],
            ["fit", "--solution", "x.csv", "--window-n", "3"],
        ],
    )
    def test_malformed_pairs_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"

    def test_truncated_coefficients_are_an_error(self, tmp_path, capsys):
        # z*p is differentiated once by normal ordering, so p given at
        # (18, 18) cannot drive an 18 x 18 solve
        op = tmp_path / "op.txt"
        op.write_text("3 + (t*dt + 1)*(z*dz + 2)*(1 + z*p)\n")
        coeffs = [[n, k, f"{(n * 19 + k) % 7 - 3}/{k % 4 + 1}"] for n in range(19) for k in range(19)]
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"p": {"N": 18, "K": 18, "coeffs": coeffs}}))
        code, _out, err = run(
            capsys, "solve", "--operator", str(op), "--params", str(params),
            "--N", "18", "--K", "18", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "ValueError"
        assert "(17, 17)" in data["message"] and "(18, 18)" in data["message"]
        assert not (tmp_path / "out" / "solution.csv").exists()

    def test_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--fixture", "geometric", "--seed", "1"])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
        code, out, _err = run(capsys, "--print-config")
        assert code == 0
        assert "seed" not in dict(ln.split("=", 1) for ln in out.strip().splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--fixture", "geometric", "--s", "1/0"],
            ["analyze", "--fixture", "geometric", "--s", "half"],
            ["fit", "--solution", "x.csv", "--alpha", "1/0"],
            ["fit", "--solution", "x.csv", "--alpha", "x"],
            ["fit", "--solution", "x.csv", "--s", "2/0"],
        ],
    )
    def test_malformed_rationals_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        data = json.loads(capsys.readouterr().err)
        assert data["error"] == "UsageError"
        assert argv[-2] in data["message"] and repr(argv[-1]) in data["message"]

    @pytest.mark.parametrize("command", ["solve", "sharpness"])
    @pytest.mark.parametrize("flag", [["--grid", "16,16"], ["--s", "1/2"], ["--s", "1/0"], ["--svg"]])
    def test_unread_flags_are_usage_errors(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fixture", "geometric", "--K", "8", *flag, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        data = json.loads(capsys.readouterr().err)
        assert data["error"] == "UsageError"
        assert flag[0] in data["message"]
        assert not any(tmp_path.iterdir())

    def test_fit_with_negative_alpha_and_s(self, tmp_path, capsys):
        code, _out, _err = run(
            capsys, "solve", "--fixture", "geometric", "--N", "10", "--K", "20",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        code, out, _err = run(
            capsys, "fit", "--solution", str(tmp_path / "solution.csv"), "--alpha", "-1",
            "--s=-1/2", "--out-dir", str(tmp_path / "fit"),
        )
        assert code == 0
        bounds = json.loads(out)["bounds"]
        A = {n: Fraction(a) for n, a in bounds["A"]}
        u = SeriesTZ.from_csv((tmp_path / "solution.csv").read_text())
        assert bound_violation(u, Fraction(-1), Fraction(-1, 2), A, Fraction(bounds["B"])) is None

    def test_hypothesis_error(self, tmp_path, capsys):
        op = tmp_path / "op.txt"
        op.write_text("t^2*dt\n")
        code, _out, err = run(
            capsys, "analyze", "--operator", str(op), "--out-dir", str(tmp_path / "o")
        )
        assert code == 1
        assert json.loads(err)["error"] == "HypothesisError"


class TestOtherCommands:
    def test_print_config(self, capsys):
        code, out, _err = run(capsys, "--print-config")
        assert code == 0
        lines = dict(ln.split("=", 1) for ln in out.strip().splitlines())
        assert lines["N"] == "16"
        assert lines["grid_n"] == "256"

    def test_liouville(self, tmp_path, capsys):
        code, out, _err = run(
            capsys,
            "liouville",
            "--terms",
            "3",
            "--grid",
            "2000,2000",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == "110001/1000000"
        assert data["hits"]["2"]["n"] == 1 and data["hits"]["2"]["k"] == 8
        csv = (tmp_path / "liouville.csv").read_text().splitlines()
        assert csv[0] == "n,k,abs_w"
        assert csv[1].startswith("0,0,0.110001")

    def test_sharpness(self, tmp_path, capsys):
        code, out, _err = run(
            capsys,
            "sharpness",
            "--fixture",
            "geometric",
            "--N",
            "8",
            "--K",
            "40",
            "--rows",
            "2,12",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        data = json.loads(out)
        assert all(data["bound_holds"].values())
        assert data["alpha_hat_ge_alpha_minus_tenth"] is True

    def test_demo(self, tmp_path, capsys):
        code, out, _err = run(capsys, "demo", "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["geometric"]["alpha"] == "1"
        assert data["constant-diagonal"]["corollary_gs_extension"] is True
        assert (tmp_path / "geometric" / "solution.csv").exists()
        assert (tmp_path / "geometric" / "polygon.svg").exists()

    def test_svg_outputs(self, tmp_path, capsys):
        run(
            capsys,
            "analyze",
            "--fixture",
            "geometric",
            "--N",
            "8",
            "--K",
            "8",
            "--grid",
            "16,16",
            "--svg",
            "--out-dir",
            str(tmp_path),
        )
        assert (tmp_path / "polygon.svg").read_text().startswith("<svg")
