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
        assert data.xs == (1.0, 2.0)
        assert data.ys == (1.0, 4.0)

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
        assert data.xs == (0, 1)
        assert data.ys == (1, 2)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("column", [1, 2])
    def test_non_finite_number_names_line_and_column(self, token, column):
        row = f"{token},2" if column == 1 else f"1,{token}"
        with pytest.raises(ParseError, match=(
                rf"^line 3, column {column}: non-finite number '{token}'$")):
            parse_data(f"x,y\n0,1\n{row}\n")

    @pytest.mark.parametrize("row,column", [
        ("0,,5", 2), (",3,4", 1), (",", 1), ("0,", 2), ("0,,", 2)])
    def test_empty_field_names_line_and_column(self, row, column):
        with pytest.raises(ParseError, match=(
                rf"^line 3, column {column}: empty field$")):
            parse_data(f"x,y\n1,2\n{row}\n")

    def test_trailing_commas_are_ignored(self):
        data = parse_data("x,y\n0,1,\n1,2,,\n")
        assert data.xs == (0.0, 1.0) and data.ys == (1.0, 2.0)

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_data("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_data("x,y\n1.0,2.0\nbad,3.0\n")
        with pytest.raises(ParseError, match="^line 1: no data rows$"):
            parse_data("# only\n")


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

    def test_integer_scheme_one_row(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("x,y\n1.5,5\n")
        assert main(["table", str(one), "--scheme", "integer", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "scheme": "integer", "r": 0, "columns": [[5.0]], "positions": [0]}

    def test_integer_scheme_rejects_uneven_nodes(self, tmp_path, capsys):
        uneven = tmp_path / "uneven.csv"
        uneven.write_text("0,1\n1,2\n3,5\n")
        assert main(["table", str(uneven), "--scheme", "integer"]) == 2
        assert capsys.readouterr().err == (
            "error: integer scheme needs evenly spaced input\n")

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\noops\n")
        assert main(["table", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["table"], ["interp", "-x", "1"]])
    @pytest.mark.parametrize("row,column", [("0,,5", 2), (",3,4", 1)])
    def test_empty_field_exits_2(self, tmp_path, command, row, column,
                                 capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y\n1,2\n{row}\n")
        assert main([command[0], str(bad), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"parse error: line 3, column {column}: empty field\n"

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

    def test_variant_needs_evenly_spaced_input(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        path.write_text("0,1\n0.4,2\n1.1,4\n")
        assert main(["interp", str(path), "-x", "0.5",
                     "--variant", "stirling"]) == 2
        assert capsys.readouterr().err == \
            "error: --variant needs evenly spaced input\n"

    def test_error_column_against_reference_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,1\n1,3\n2,7\n")  # x^2 + x + 1
        ref = tmp_path / "ref.csv"
        ref.write_text("0,1\n0.5,1.75\n1.5,4.75\n")
        assert main(["interp", str(data), "-x", "0.5,1.5",
                     "--reference", str(ref)]) == 0
        assert capsys.readouterr().out == \
            "x,value,error\n0.5,1.75,0\n1.5,4.75,0\n"
        assert main(["interp", str(data), "-x", "0.7",
                     "--reference", str(ref)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reference file has no value at x=0.7\n"

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

    @pytest.mark.parametrize("extra", [
        [], ["--func", "exp"], ["--func", "table5"], ["INPUT"],
        ["INPUT", "--func", "cos"],
    ], ids=["no-func", "exp", "table5", "input-file", "input-file-and-cos"])
    def test_series_needs_sin_or_cos(self, t5, extra, capsys):
        extra = [t5 if a == "INPUT" else a for a in extra]
        assert main(["diff", *extra, "-t", "1", "--at", "0.3",
                     "--method", "series"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --method series needs --func sin or --func cos and no "
            "input file: the series converges only for a function whose "
            "derivatives stay bounded\n")


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

    @pytest.mark.parametrize("extra,message", [
        (["--central"], "--central needs m == n in --grid m,n, got 1,2"),
        ([], "--grid m must be 0 without --central, got 1"),
    ], ids=["central", "even"])
    def test_grid_rule_needs_its_layout(self, extra, message, capsys):
        assert main(["quad", "--grid", "0,0.1,1,2", "--func", "exp"]
                    + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
        assert captured.err == "error: --panels must be >= 1, got 0\n"


class TestNegativeLists:
    """A comma list whose first number is negative is a value, whether it
    follows its option or is joined to it with ``=``."""

    @pytest.mark.parametrize("argv,option", [
        (["interp", "CSV", "-x", "-0.5,0.3"], "-x"),
        (["diff", "--grid", "-1,0.1,2,2", "--func", "exp", "-t", "1"],
         "--grid"),
        (["quad", "--grid", "-1,0.1,0,2", "--func", "exp"], "--grid"),
        (["quad", "--panels", "4", "--func", "exp", "--interval", "-1,1"],
         "--interval"),
        (["interp", "CSV", "-r", "2", "-x", "2.5", "--tail", "1",
          "--tail-coeffs", "-.5,1"], "--tail-coeffs"),
    ], ids=["interp-x", "diff-grid", "quad-grid", "quad-interval",
            "interp-tail-coeffs"])
    def test_list_value_equals_its_joined_form(self, cubic4, argv, option,
                                               capsys):
        argv = [cubic4 if a == "CSV" else a for a in argv]
        assert main(argv) == 0
        spaced = capsys.readouterr()
        at = argv.index(option)
        joined = argv[:at] + [f"{option}={argv[at + 1]}"] + argv[at + 2:]
        assert main(joined) == 0
        assert capsys.readouterr() == spaced
        assert spaced.err == "" and spaced.out

    @pytest.mark.parametrize("argv", [
        ["quad", "--panels", "4", "--func", "exp", "--interval"],
        ["quad", "--panels", "4", "--interval", "--func", "exp"],
        ["interp", "CSV", "-x", "-r", "1"],
    ], ids=["no-value", "option-after", "short-option-after"])
    def test_list_option_without_a_value_is_a_usage_error(self, cubic4, argv,
                                                           capsys):
        argv = [cubic4 if a == "CSV" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("expected one argument\n")

    @pytest.mark.parametrize("argv,short,full", [
        (["quad", "--panels", "4", "--func", "exp", "--inter", "-1,1"],
         "--inter", "--interval"),
        (["interp", "CSV", "-r", "1", "--tail", "1", "--tail-c", "-1,2",
          "-x", "0.5"], "--tail-c", "--tail-coeffs"),
        (["diff", "--gr", "-0.5,0.1,2,2", "--func", "exp", "-t", "2"],
         "--gr", "--grid"),
        (["quad", "--panels", "4", "--func", "exp", "--inter", "0,1"],
         "--inter", "--interval"),
    ], ids=["quad-interval", "interp-tail-coeffs", "diff-grid",
            "non-negative"])
    def test_abbreviated_list_option_equals_its_full_name(
            self, cubic4, argv, short, full, capsys):
        argv = [cubic4 if a == "CSV" else a for a in argv]
        assert main(argv) == 0
        abbreviated = capsys.readouterr()
        assert main([full if a == short else a for a in argv]) == 0
        assert capsys.readouterr() == abbreviated
        assert abbreviated.err == "" and abbreviated.out

    @pytest.mark.parametrize("argv,message", [
        (["quad", "--panels", "2", "--func", "exp", "--interval", "-inf,0"],
         "--interval must be finite, got '-inf'"),
        (["quad", "--panels", "2", "--func", "exp", "--inter",
          "-Infinity,0"], "--interval must be finite, got '-Infinity'"),
        (["interp", "CSV", "-x", "-nan,0.3"], "-x must be finite, got '-nan'"),
        (["diff", "--grid", "-INF,0.1,2,2", "--func", "exp", "-t", "1"],
         "--grid origin a must be finite, got '-INF'"),
    ], ids=["quad-interval", "quad-inter-infinity", "interp-x", "diff-grid"])
    def test_non_finite_first_value_reaches_the_finite_check(
            self, cubic4, argv, message, capsys):
        argv = [cubic4 if a == "CSV" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_ambiguous_prefix_is_a_usage_error(self, cubic4, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interp", cubic4, "-r", "1", "--ta", "-1,2", "-x", "0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("ambiguous option: --ta could match --tail, "
                            "--tail-coeffs\n")
        assert "Traceback" not in err


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

    def test_text_line(self, capsys):
        assert main(["stencil", "-m", "2", "-n", "3", "-t", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "f^(2)(a) ~ 1/(12*h^2) * [-1, 16, -30, 16, -1, 0] on offsets "
            "[-2, -1, 0, 1, 2, 3] (accuracy order 4)\n")
        assert captured.err == ""


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
        assert main(["reproduce", "table5"]) == 1
        assert "FAIL forced-miss" in capsys.readouterr().out

    def test_table5_pass(self, capsys):
        assert main(["reproduce", "table5"]) == 0
        assert "9/9 cases passed" in capsys.readouterr().out

    def test_unknown_selection_raises(self):
        from divdiff import repro
        with pytest.raises(ValueError, match=(
                r"^unknown selection 'x'; choose from \('table5', ")):
            repro.run_reproduction("x")

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
        assert captured.err == "error: -r must be in 0..3 on 4 nodes, got 7\n"

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
        (["quad", "--grid=1e308,1e308,0,2", "--func", "sin", "--rational"],
         "--grid node a+1*h is beyond the float range"),
    ], ids=["value-count", "count-not-integer", "infinite-origin",
            "zero-step", "node-overflow", "sampler-overflow",
            "rational-node-overflow"])
    def test_grid_spec_errors_name_the_grid(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["diff", "CSV", "--grid", "0,0.1,1,1", "-t", "1"],
         "an input file does not apply to --grid"),
        (["diff", "--grid", "0,0.1,1,1", "-t", "1", "--at", "0.3"],
         "--at does not apply to --grid"),
        (["diff", "--grid", "0,0.1,1,1", "-t", "1", "--method", "lincomb"],
         "--method does not apply to --grid"),
        (["diff", "--grid", "0,0.1,1,1", "-t", "1", "--opcount"],
         "--opcount does not apply to --grid"),
        (["diff", "CSV", "-t", "1", "--at", "0.5", "--method", "lincomb",
          "--opcount"],
         "--opcount counts only the recursive route, which runs off the "
         "nodes"),
        (["diff", "CSV", "-t", "1", "--at", "1", "--opcount"],
         "--opcount counts only the recursive route, which runs off the "
         "nodes"),
        (["diff", "CSV", "-t", "1", "--at", "0.5", "--func", "sin"],
         "--func does not apply to an input file"),
        (["diff", "CSV", "-t", "1", "--at", "0.5", "--terms", "0"],
         "--terms does not apply to an input file"),
        (["diff", "--func", "sin", "-t", "1", "--at", "0.3", "--method",
          "series", "--rational"],
         "--rational does not apply to --method series"),
        (["diff", "--func", "sin", "-t", "1", "--at", "0.3", "--method",
          "series", "--step", "2"],
         "--step must satisfy 0 < |h| < 1, got 2"),
        (["diff", "--func", "sin", "-t", "1", "--at", "0.3", "--method",
          "series", "--terms", "0"],
         "--terms must be >= 1, got 0"),
        (["diff", "--func", "sin", "-t", "0", "--at", "0.3", "--method",
          "series"],
         "-t must be >= 1, got 0"),
        (["quad", "CSV", "--grid", "0,0.1,0,2"],
         "an input file does not apply to --grid"),
        (["quad", "CSV", "--panels", "4"],
         "an input file does not apply to --panels"),
        (["quad", "--grid", "0,0.1,0,2", "--panels", "4"],
         "--grid does not apply to --panels"),
        (["quad", "--grid", "0,0.1,0,2", "--at", "0.3"],
         "--at does not apply to --grid"),
        (["quad", "--panels", "4", "--at", "0.3"],
         "--at does not apply to --panels"),
        (["quad", "--panels", "4", "--rational"],
         "--rational does not apply to --panels"),
        (["quad", "CSV", "--at", "0.5", "--central"], "--central needs --grid"),
        (["quad", "CSV", "--at", "0.5", "--rule-n", "0"],
         "--rule-n does not apply to an input file"),
        (["quad", "CSV", "--step", "0.5"],
         "uneven quadrature needs --at, the anchor x"),
        (["quad", "--panels", "4", "--interval", "1"],
         "--interval needs two values p,q, got '1'"),
        (["quad", "--panels", "4", "--interval", "0,1,2"],
         "--interval needs two values p,q, got '0,1,2'"),
        (["quad", "--panels", "4", "--rule-n", "0"],
         "--rule-n must be >= 1, got 0"),
        (["table", "CSV", "--scheme", "newton", "-r", "2"],
         "-r does not apply to --scheme newton"),
        (["diff", "CSV", "-t", "1", "--at", "abc"],
         "--at must be a number, got 'abc'"),
        (["stencil", "-m", "1", "-n", "1", "-t", "3"],
         "need m, n >= 0 and 1 <= t <= m + n"),
        (["quad", "--grid", "0,0.1,0,0", "--func", "exp"],
         "--grid n must be >= 1, got 0"),
        (["quad", "--grid", "0,0.1,0,0", "--func", "exp", "--central"],
         "--grid n must be >= 1, got 0"),
        (["diff", "--grid", "0,0.1,0,0", "--func", "exp", "-t", "1"],
         "-t must be in 1..m+n of --grid m,n = 0,0, got 1"),
        (["diff", "--grid", "0,0.1,1,1", "--func", "exp", "-t", "3"],
         "-t must be in 1..m+n of --grid m,n = 1,1, got 3"),
        (["diff", "--grid", "0,0.1,1,1", "--func", "exp", "-t", "0"],
         "-t must be in 1..m+n of --grid m,n = 1,1, got 0"),
        (["quad", "--grid", "0,0.1,1,2", "--func", "exp", "--central"],
         "--central needs m == n in --grid m,n, got 1,2"),
        (["quad", "--grid", "0,0.1,1,2", "--func", "exp"],
         "--grid m must be 0 without --central, got 1"),
        (["quad", "--panels", "0", "--func", "sin"],
         "--panels must be >= 1, got 0"),
        (["interp", "CSV", "-x", "0.5", "--tail", "1"],
         "--tail 1 needs -r <= 2 on 4 nodes, got -r 3"),
        (["interp", "CSV", "-x", "0.5", "--tail", "2", "-r", "3"],
         "--tail 2 needs -r <= 1 on 4 nodes, got -r 3"),
        (["interp", "CSV", "-x", "0.5", "--tail", "3"],
         "--tail 3 needs at least 5 nodes, got 4"),
        (["interp", "CSV", "-x", "0.5", "--tail", "0", "-r", "0"],
         "--tail 0 needs -r >= 1, got -r 0"),
        (["interp", "CSV", "-x", "0.5", "--tail", "1", "--tail-coeffs",
          "1,2", "-r", "0"], "--tail 1 needs -r >= 1, got -r 0"),
        (["interp", "CSV", "-x", "0.5", "-r", "-1"],
         "-r must be in 0..3 on 4 nodes, got -1"),
        (["interp", "CSV", "-x", "0.5", "-r", "7", "--barycentric"],
         "-r must be in 0..3 on 4 nodes, got 7"),
        (["interp", "CSV", "-x", "0.5", "--tail", "1", "-r", "4"],
         "-r must be in 0..3 on 4 nodes, got 4"),
        (["interp", "CSV", "-x", "0.5", "--variant", "stirling", "-r", "5"],
         "-r must be in 0..1 for --variant stirling on 4 nodes, got 5"),
        (["interp", "CSV", "-x", "0.5", "--variant", "bessel", "-r", "-2"],
         "-r must be in 0..1 for --variant bessel on 4 nodes, got -2"),
        (["table", "CSV", "--scheme", "new", "-r", "9"],
         "-r must be in 0..3 on 4 nodes, got 9"),
        (["table", "CSV", "--scheme", "integer", "-r", "-1"],
         "-r must be in 0..3 on 4 nodes, got -1"),
    ], ids=["diff-input-with-grid", "diff-at-with-grid",
            "diff-method-with-grid", "diff-opcount-with-grid",
            "diff-opcount-with-lincomb", "diff-opcount-at-node",
            "diff-func-with-input", "diff-terms-with-input",
            "diff-rational-with-series", "diff-series-step",
            "diff-series-terms", "diff-series-order", "quad-input-with-grid",
            "quad-input-with-panels", "quad-grid-with-panels",
            "quad-at-with-grid", "quad-at-with-panels",
            "quad-rational-with-panels", "quad-central-without-grid",
            "quad-rule-n-with-input", "quad-step-without-at",
            "quad-interval-one-value",
            "quad-interval-three-values", "quad-rule-n-zero",
            "table-r-with-newton", "diff-at-not-a-number",
            "stencil-order-out-of-range", "quad-grid-no-step",
            "quad-grid-central-no-step", "diff-grid-no-step",
            "diff-grid-order-above-m-plus-n", "diff-grid-order-zero",
            "quad-grid-central-uneven", "quad-grid-even-backward",
            "quad-panels-zero", "interp-tail-default-r",
            "interp-tail-given-r", "interp-tail-too-few-nodes",
            "interp-tail-r-zero", "interp-tail-coeffs-r-zero",
            "interp-r-negative", "interp-barycentric-r-high",
            "interp-tail-r-high", "interp-variant-r-high",
            "interp-bessel-r-negative", "table-new-r-high",
            "table-integer-r-negative"])
    def test_option_errors_name_the_option(self, cubic4, argv, message,
                                           capsys):
        argv = [cubic4 if a == "CSV" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,flag", [
        (["interp", "CSV", "-x", "0.5", "--json"], "--json"),
        (["diff", "CSV", "-t", "1", "--at", "0.5", "--json"], "--json"),
        (["quad", "--panels", "4", "--json"], "--json"),
        (["stencil", "-m", "1", "-n", "1", "-t", "2", "--rational"],
         "--rational"),
        (["reproduce", "stencils", "--rational"], "--rational"),
    ], ids=["interp-json", "diff-json", "quad-json", "stencil-rational",
            "reproduce-rational"])
    def test_flag_off_its_subcommands_is_unrecognized(self, cubic4, argv,
                                                      flag, capsys):
        argv = [cubic4 if a == "CSV" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: unrecognized arguments: {flag}\n")

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


class TestRouteTable:
    MINIMAL = {"table": ["table", "in.csv"],
               "interp": ["interp", "in.csv", "-x", "1"],
               "diff": ["diff", "-t", "1"], "quad": ["quad"],
               "stencil": ["stencil", "-m", "1", "-n", "1", "-t", "1"],
               "reproduce": ["reproduce", "all"]}

    def test_routes_read_only_options_of_their_subcommand(self):
        from divdiff.cli import ROUTES, build_parser
        parser = build_parser()
        assert {route.command for route in ROUTES} == set(self.MINIMAL)
        for route in ROUTES:
            if route.reads is None:
                continue
            options = set(vars(parser.parse_args(self.MINIMAL[route.command])))
            assert set(route.reads.split()) <= options - {"command"}, route

    def test_each_subcommand_ends_with_a_route_that_always_runs(self):
        from divdiff.cli import ROUTES
        last = {route.command: route for route in ROUTES}
        assert all(route.when is None for route in last.values())

    def test_parser_copies_equal_the_library_constants(self):
        from divdiff import cli, interpolate, oracle, repro, tables
        assert cli.SCHEMES == tables.SCHEMES
        assert cli.CENTRAL_VARIANTS == interpolate.CENTRAL_VARIANTS
        assert cli.WHICH == repro.WHICH
        assert cli._func("table5") is oracle.table5_function

    def test_cli_resolves_library_modules(self):
        from divdiff import cli
        with pytest.raises(AttributeError):
            cli.no_such_module


# modules a route must not load; every route loads cli and samples, and
# derivatives loads counting.  tables is loaded by the routes that run one
# of its functions: the table, interpolation, lincomb-derivative and
# reproduction routes, not the grid routes nor the other off-node ones,
# whose cardinal kernel lives in samples.  No route loads dataclasses.
LIBRARY = {"repro", "oracle", "interpolate", "quadrature", "dataio",
           "derivatives", "tables"}


@pytest.mark.parametrize("argv,loads", [
    (["stencil", "-m", "1", "-n", "1", "-t", "2"], {"derivatives"}),
    (["stencil", "-m", "2", "-n", "2", "-t", "2", "--json"], {"derivatives"}),
    (["diff", "--grid", "0,0.1,2,2", "--func", "exp", "-t", "2"],
     {"derivatives"}),
    (["quad", "--grid", "0,1,0,6", "--func", "exp"],
     {"derivatives", "quadrature"}),
    (["quad", "--panels", "4", "--func", "sin"],
     {"derivatives", "quadrature"}),
    (["diff", "--grid", "0,0.1,1,1", "-t", "1"], {"derivatives", "oracle"}),
    (["table", "CSV"], {"dataio", "tables"}),
    (["interp", "CSV", "-x", "0.5"], {"dataio", "interpolate", "tables"}),
    (["diff", "CSV", "-t", "1", "--at", "0.5"], {"dataio", "derivatives"}),
    (["diff", "CSV", "-t", "1", "--at", "0.5", "--method", "lincomb"],
     {"dataio", "derivatives", "tables"}),
    (["quad", "CSV", "--at", "0.5"], {"dataio", "derivatives", "quadrature"}),
    (["stencil", "-m", "0", "-n", "0", "-t", "1"], {"derivatives"}),
    (["reproduce", "stencils"], {"repro", "oracle", "interpolate",
                                 "quadrature", "derivatives", "tables"}),
], ids=["stencil", "stencil-json", "diff-grid", "quad-grid", "quad-panels",
        "diff-grid-table5", "table", "interp", "diff-input", "diff-lincomb",
        "quad-input", "stencil-error", "reproduce"])
def test_route_loads_only_what_it_runs(cubic4, argv, loads):
    argv = [cubic4 if a == "CSV" else a for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import contextlib, io, json, sys\n"
            "from divdiff.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    main({argv!r})\n"
            "print(json.dumps([m for m in sys.modules "
            "if m.startswith('divdiff.') or m == 'dataclasses']))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    loaded = {m.removeprefix("divdiff.") for m in json.loads(out)}
    assert "dataclasses" not in loaded
    assert loaded & LIBRARY == loads
