import json
import subprocess
import sys
from pathlib import Path

import pytest

from divdiff import table_from_json
from divdiff.cli import main
from divdiff.dataio import ParseError, parse_data

T5_CSV = """# sampled reference data
x,y
1.0,6.2780346
1.25,9.0395024
1.5,12.7004652
1.75,17.5471328
2.0,23.9857632
2.25,32.5858062
2.5,44.1349092
2.75,59.7094373
3.0,80.7655077
"""


@pytest.fixture
def t5(tmp_path):
    path = tmp_path / "t5.csv"
    path.write_text(T5_CSV)
    return str(path)


class TestDataIO:
    def test_header_comments_and_sorting(self):
        data = parse_data("x,y\n# note\n2.0,4.0\n1.0,1.0\n")
        assert data.header == ("x", "y")
        assert data.xs == (1.0, 2.0)
        assert data.original_order == (1, 0)

    def test_rational_parse_is_exact(self):
        from fractions import Fraction
        data = parse_data("0.1,0.3\n0.2,0.7\n", rational=True)
        assert data.xs == (Fraction(1, 10), Fraction(1, 5))

    def test_zero_denominator_is_a_bad_number(self):
        with pytest.raises(ParseError,
                           match=r"^line 2, column 2: bad number '1/0'$"):
            parse_data("0,1\n1,1/0\n", rational=True)

    def test_zero_denominator_first_row_is_a_header(self):
        data = parse_data("1/0,y\n0,1\n1,2\n", rational=True)
        assert data.header == ("1/0", "y")
        assert len(data.xs) == 2

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_data("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_data("x,y\n1.0,2.0\nbad,3.0\n")


class TestTableCommand:
    def test_newton_first_entry(self, t5, capsys):
        assert main(["table", t5, "--scheme", "newton"]) == 0
        out = capsys.readouterr().out
        assert "11.0458712" in out

    def test_combined_full_split_equals_newton(self, t5, capsys):
        main(["table", t5, "--scheme", "newton", "--json"])
        newton = capsys.readouterr().out
        main(["table", t5, "--scheme", "combined", "-r", "8", "--json"])
        combined = capsys.readouterr().out
        assert json.loads(newton)["columns"] == json.loads(combined)["columns"]

    def test_json_round_trip(self, t5, capsys):
        main(["table", t5, "--scheme", "new", "-r", "3", "--json"])
        text = capsys.readouterr().out
        table = table_from_json(text)
        assert table.to_json() == text.strip()

    def test_integer_scheme_heads(self, t5, capsys):
        main(["table", t5, "--scheme", "integer", "-r", "4"])
        out = capsys.readouterr().out
        # head of the first-order column is the plain first difference
        assert "2.7614678" in out

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\noops\n")
        assert main(["table", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_deterministic_output(self, t5, capsys):
        main(["table", t5, "--scheme", "new", "-r", "2", "--json"])
        first = capsys.readouterr().out
        main(["table", t5, "--scheme", "new", "-r", "2", "--json"])
        assert capsys.readouterr().out == first


class TestInterpCommand:
    def test_error_column_against_reference(self, t5, capsys):
        assert main(["interp", t5, "-r", "4", "-x", "1.6", "--reference",
                     "table5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,value,error"
        x, value, err = out[1].split(",")
        assert abs(float(err)) < 1e-5

    def test_r_zero_and_r_n_agree(self, t5, capsys):
        main(["interp", t5, "-r", "0", "-x", "1.6,2.2"])
        low = capsys.readouterr().out
        main(["interp", t5, "-r", "8", "-x", "1.6,2.2"])
        high = capsys.readouterr().out
        for a, b in zip(low.splitlines()[1:], high.splitlines()[1:]):
            va, vb = float(a.split(",")[1]), float(b.split(",")[1])
            assert va == pytest.approx(vb, rel=1e-9)

    def test_hull_warning(self, t5, capsys):
        main(["interp", t5, "-r", "2", "-x", "5.0"])
        assert "outside the extended node hull" in capsys.readouterr().err

    def test_variant_flag_matches_general(self, t5, capsys):
        main(["interp", t5, "--variant", "stirling", "-x", "1.85,2.15"])
        central = capsys.readouterr().out.splitlines()[1:]
        main(["interp", t5, "-r", "0", "-x", "1.85,2.15"])
        plain = capsys.readouterr().out.splitlines()[1:]
        for a, b in zip(central, plain):
            assert float(a.split(",")[1]) == pytest.approx(
                float(b.split(",")[1]), rel=1e-9)

    def test_fitted_tail_flag(self, tmp_path, capsys):
        rows = "\n".join(f"{i},{i ** 3}.0" for i in range(6))
        path = tmp_path / "cube.csv"
        path.write_text(rows + "\n")
        main(["interp", str(path), "-r", "2", "-x", "2.5", "--tail", "1"])
        out = capsys.readouterr().out.splitlines()
        # cubic data: order-2 tail column is exactly linear, so the fitted
        # short form is exact
        assert float(out[1].split(",")[1]) == pytest.approx(2.5 ** 3, rel=1e-9)

    def test_tail_coeffs_reproduce_modified_fit(self, tmp_path, capsys):
        # position-coordinate data for the tail form
        rows = "\n".join(f"{i},{y}" for i, y in enumerate(
            [6.2780346, 9.0395024, 12.7004652, 17.5471328, 23.9857632,
             32.5858062, 44.1349092, 59.7094373, 80.7655077]))
        path = tmp_path / "pos.csv"
        path.write_text(rows + "\n")
        main(["interp", str(path), "-r", "3", "-x", "-0.6", "--tail", "1",
              "--tail-coeffs", "0.026390,0.006633"])
        out = capsys.readouterr().out.splitlines()
        value = float(out[1].split(",")[1])
        assert value == pytest.approx(4.99697, abs=2e-4)


class TestDiffCommand:
    def test_grid_five_point(self, capsys):
        assert main(["diff", "--grid", "0,0.1,2,2", "--func", "exp",
                     "-t", "2"]) == 0
        out = capsys.readouterr().out
        assert "[-1, 16, -30, 16, -1]" in out
        value = float(out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_constant_data(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("0.0,2.0\n0.5,2.0\n1.3,2.0\n2.0,2.0\n")
        main(["diff", str(path), "-t", "2", "--at", "0.9"])
        value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_methods_agree(self, t5, capsys):
        main(["diff", t5, "-t", "1", "--at", "1.6", "--method", "recursive"])
        a = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        main(["diff", t5, "-t", "1", "--at", "1.6", "--method", "lincomb"])
        b = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert a == pytest.approx(b, rel=1e-8)

    def test_node_point_reroutes_to_grid(self, t5, capsys):
        main(["diff", t5, "-t", "1", "--at", "2.0"])
        out = capsys.readouterr().out
        assert "rerouted" in out
        value = float(out.splitlines()[0].split(":")[1])
        from divdiff import table5_function
        eps = 1e-6
        want = (table5_function(2.0 + eps) - table5_function(2.0 - eps)) / (2 * eps)
        assert value == pytest.approx(want, rel=1e-5)

    def test_opcount_line(self, t5, capsys):
        main(["diff", t5, "-t", "2", "--at", "1.6", "--opcount"])
        assert "op-counts:" in capsys.readouterr().out

    def test_series_method(self, capsys):
        import math
        main(["diff", "--func", "cos", "-t", "1", "--at", "0.3",
              "--method", "series", "--step", "0.3", "--terms", "500"])
        value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(-math.sin(0.3), rel=1e-2)


class TestQuadCommand:
    def test_grid_simpson_weights(self, capsys):
        assert main(["quad", "--grid", "0,1,0,2", "--func", "exp"]) == 0
        out = capsys.readouterr().out
        assert "h/3 * (1, 4, 1)" in out

    def test_grid_seven_point_weights(self, capsys):
        main(["quad", "--grid", "0,0.5,0,6", "--func", "sin"])
        out = capsys.readouterr().out
        assert "h/140 * (41, 216, 27, 272, 27, 216, 41)" in out

    def test_central(self, capsys):
        main(["quad", "--grid", "0,0.25,2,2", "--func", "cos", "--central"])
        value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        import math
        assert value == pytest.approx(2 * math.sin(0.5), abs=1e-6)

    def test_uneven_constant(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("0.1,3.0\n0.7,3.0\n1.3,3.0\n")
        main(["quad", str(path), "--at", "0.2", "--step", "0.5"])
        value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(1.5, rel=1e-10)

    def test_composite(self, capsys):
        main(["quad", "--panels", "16", "--func", "sin",
              "--interval", "0,3.141592653589793"])
        value = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(2.0, abs=2e-6)

    def test_zero_panels_is_rejected_as_a_panel_count(self, capsys):
        assert main(["quad", "--panels", "0", "--func", "sin"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: panels must be >= 1\n"


class TestRowOrder:
    """Commands read CSV rows in x order, whatever the file order."""

    SORTED = "x,y\n0,1\n0.5,1.6\n1.25,3.1\n2,5.5\n3,10\n"
    SHUFFLED = "x,y\n1.25,3.1\n3,10\n0,1\n2,5.5\n0.5,1.6\n"

    @pytest.mark.parametrize("argv", [
        ["interp", "-x", "0.3,1.7,4.0"],
        ["diff", "-t", "2", "--at", "0.8"],
        ["diff", "-t", "1", "--at", "1.25"],
        ["quad", "--at", "0.7"],
    ], ids=["interp", "diff", "diff-at-node", "quad-auto-step"])
    def test_shuffled_rows_give_the_sorted_output(self, tmp_path, argv,
                                                   capsys):
        outs = []
        for name, text in (("sorted", self.SORTED),
                           ("shuffled", self.SHUFFLED)):
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            assert main([argv[0], str(path), *argv[1:]]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].out == outs[1].out
        assert outs[0].err == outs[1].err


class TestStencilCommand:
    def test_json_payload(self, capsys):
        assert main(["stencil", "-m", "0", "-n", "4", "-t", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"offsets": [0, 1, 2, 3, 4],
                           "num": [35, -104, 114, -56, 11],
                           "den": 12, "t": 2, "order": 3}


class TestReproduceCommand:
    def test_stencils_pass(self, capsys):
        assert main(["reproduce", "stencils"]) == 0
        out = capsys.readouterr().out
        assert "5/5 cases passed" in out

    def test_failing_case_sets_exit_code(self, capsys, monkeypatch):
        from divdiff import repro

        def broken(which):
            report = repro.ReproReport()
            report.add_numeric("forced-miss", 1.0, 2.0, 1e-9)
            return report
        monkeypatch.setattr(repro, "run_reproduction", broken)
        monkeypatch.setattr("divdiff.cli.repro.run_reproduction", broken)
        assert main(["reproduce", "table5"]) == 1
        assert "FAIL forced-miss" in capsys.readouterr().out

    def test_table5_pass(self, capsys):
        assert main(["reproduce", "table5"]) == 0
        assert "9/9 cases passed" in capsys.readouterr().out

    def test_all_pass_and_json(self, capsys):
        assert main(["reproduce", "all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert len(payload["cases"]) > 150

    def test_deterministic_report(self, capsys):
        main(["reproduce", "table6"])
        first = capsys.readouterr().out
        main(["reproduce", "table6"])
        assert capsys.readouterr().out == first


class TestInputErrors:
    """Bad input and arithmetic that fails end in a clean exit 2."""

    @pytest.mark.parametrize("argv", [
        ["diff", "--grid", "0,1000,2,2", "--func", "exp", "-t", "2"],
        ["quad", "--panels", "4", "--func", "exp", "--interval", "0,1000"],
        ["diff", "--grid", "0,1e-200,2,2", "--func", "sin", "-t", "3"],
    ], ids=["diff-overflow", "quad-overflow", "diff-zero-division"])
    def test_arithmetic_error_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("extra", [
        ["interp", "-x", "inf,nan"],
        ["diff", "-t", "1", "--at", "1e400"],
        ["quad", "--at", "0.25", "--step", "0"],
    ], ids=["interp-non-finite-x", "diff-infinite-at", "quad-zero-step"])
    def test_rejected_input_exits_2(self, t5, extra, capsys):
        assert main([extra[0], t5, *extra[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.fixture
def cubic4(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0,1\n1,2\n2,5\n3,10\n")
    return str(path)


@pytest.fixture
def square5(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("x,y\n0,1\n1,2\n2,5\n3,10\n4,17\n")
    return str(path)


class TestNonFiniteResults:
    """A result that over- or underflows to inf or nan exits 2, naming x."""

    @pytest.mark.parametrize("extra", [[], ["--barycentric"]],
                             ids=["general", "barycentric"])
    def test_interp(self, cubic4, extra, capsys):
        assert main(["interp", cubic4, "-x", "0.5,1e300", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: interpolant at x=1e+300 is not finite (nan)" \
            in captured.err

    def test_diff(self, cubic4, capsys):
        assert main(["diff", cubic4, "-t", "2", "--at", "1e200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: derivative at x=1e+200 is not finite (nan)\n"

    def test_quad(self, capsys):
        # every sample is finite, but the weighted panel sum overflows
        assert main(["quad", "--panels", "1", "--func", "exp",
                     "--interval", "709,709.78"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: integral over [709, 709.78] is not finite (inf)\n"


class TestErrorMessages:
    def test_interp_error_prints_no_header(self, cubic4, capsys):
        assert main(["interp", cubic4, "-x", "0.5", "-r", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r=7 out of range 0..3\n"

    def test_auto_step_needs_two_nodes(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x,y\n0,1\n")
        assert main(["quad", str(path), "--at", "0.1"]) == 2
        assert capsys.readouterr().err == \
            "error: --step auto needs at least 2 nodes\n"

    @pytest.mark.parametrize("at,step", [("1e300", "1"), ("0.1", "1e300")])
    def test_overflow_message(self, cubic4, at, step, capsys):
        assert main(["quad", cubic4, "--at", at, "--step", step]) == 2
        assert capsys.readouterr().err == \
            "error: numerical result out of range\n"

    def test_composite_panel_step_overflow_names_interval(self, capsys):
        # both ends are finite, but q - p overflows to inf
        assert main(["quad", "--panels", "4", "--func", "cos",
                     "--interval=-1e308,1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: panel step over [-1e+308, 1e+308] " \
            "is not finite (inf)\n"

    def test_grid_step_underflow_names_h_and_t(self, capsys):
        assert main(["diff", "--grid", "0,1e-300,1,1", "--func", "sin",
                     "-t", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step h=1e-300 gives h**t = 0.0 at t=2\n"

    @pytest.mark.parametrize("extra,message", [
        (["--tail-coeffs", "1,2"],
         "--tail-coeffs needs --tail, the degree of the tail"),
        (["-r", "2", "--tail", "1", "--tail-coeffs", "1,2,3,4"],
         "--tail 1 needs 2 --tail-coeffs, got 4"),
        (["-x", ","], "-x needs at least one point"),
        (["--tail", "-1"], "--tail must be >= 0, got -1"),
    ], ids=["tail-coeffs-without-tail", "tail-coeffs-count", "empty-x",
            "negative-tail"])
    def test_interp_option_errors(self, cubic4, extra, message, capsys):
        if "-x" not in extra:
            extra = ["-x", "0.5", *extra]
        assert main(["interp", cubic4, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("extra,message", [
        (["--barycentric", "--tail", "1", "-r", "2"],
         "argument --tail: not allowed with argument --barycentric"),
        (["--barycentric", "--variant", "stirling"],
         "argument --variant: not allowed with argument --barycentric"),
        (["--variant", "stirling", "--tail", "1"],
         "argument --tail: not allowed with argument --variant"),
    ], ids=["barycentric-tail", "barycentric-variant", "variant-tail"])
    def test_interp_evaluators_exclude_each_other(self, square5, extra,
                                                  message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interp", square5, "-x", "1.5", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: divdiff interp")
        assert captured.err.endswith(f"divdiff interp: error: {message}\n")
        assert "Traceback" not in captured.err

    def test_rational_tail_coeffs_stay_exact(self, square5, capsys):
        assert main(["interp", square5, "-x", "1.5", "--rational", "-r", "2",
                     "--tail", "1", "--tail-coeffs", "1,1"]) == 0
        assert capsys.readouterr().out == "x,value\n3/2,35/8\n"

    @pytest.mark.parametrize("argv,message", [
        (["diff", "--grid", "0,0.1,2", "--func", "sin", "-t", "1"],
         "--grid needs four values a,h,m,n, got '0,0.1,2'"),
        (["diff", "--grid", "0,0.1,2,x", "--func", "sin", "-t", "1"],
         "--grid n must be a nonnegative integer, got 'x'"),
        (["diff", "--grid", "inf,0.1,2,2", "--func", "sin", "-t", "1"],
         "--grid origin a must be finite, got 'inf'"),
        (["quad", "--grid", "0,0,0,2", "--func", "exp"],
         "--grid step h must be nonzero"),
        (["quad", "--grid", "1e308,1e308,0,2", "--func", "sin"],
         "--grid node a+1*h is beyond the float range"),
        (["quad", "--grid", "1e308,1e308,0,2", "--func", "exp"],
         "--func exp overflows at --grid node a, x=1e+308"),
    ], ids=["value-count", "count-not-integer", "infinite-origin",
            "zero-step", "node-overflow", "sampler-overflow"])
    def test_grid_spec_errors_name_the_grid(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_reference_overflow_names_function_and_x(self, cubic4, capsys):
        assert main(["interp", cubic4, "-x", "1e3", "--reference", "exp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: reference exp overflows at x=1000\n")


def test_reproduce_all_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "from divdiff.cli import main\n"
            "code = main(['reproduce', 'all'])\n"
            "print('numpy' in sys.modules, code)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False 0"
