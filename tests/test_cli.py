import contextlib
import hashlib
import io
import json

import pytest
from conftest import quadratic_fields
from hypothesis import given, settings, strategies as st

from planefol import cli
from planefol.blowup import BlowupUnavailableError, ResolutionError
from planefol.cli import main
from planefol.families import BudgetExceeded, CensusUndetermined
from planefol.roots import IsolationError
from planefol.singularities import DecompositionError, ExactnessError


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jrun(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    data = json.loads(out) if out.strip() else None
    return code, data, err


@pytest.fixture
def saddle(tmp_path):
    return write(tmp_path, "saddle.json",
                 {"vars": ["x", "y"], "P": "x", "Q": "-y"})


@pytest.fixture
def item3_field(tmp_path):
    return write(tmp_path, "item3.json",
                 {"vars": ["x", "y"], "P": "1/2*x^2 - 2*x^2*y + 7/2*x*y^2",
                  "Q": "2*y^3 - x + 2*x^3"})


@pytest.fixture
def cusp_field(tmp_path):
    return write(tmp_path, "cusp.json",
                 {"vars": ["x", "y"], "P": "2*y", "Q": "3*x^2"})


class TestDegree:
    def test_saddle(self, capsys, saddle):
        code, data, _ = jrun(capsys, "degree", "--foliation", saddle)
        assert code == 0
        assert data == {"degree": 1, "top_degree": 1, "infinity_invariant": True}

    def test_poly_object_input(self, capsys, tmp_path):
        f = write(tmp_path, "obj.json", {
            "vars": ["x", "y"],
            "P": {"vars": ["x", "y"],
                  "terms": [{"exp": [1, 0], "coef": "1"}]},
            "Q": {"vars": ["x", "y"],
                  "terms": [{"exp": [0, 1], "coef": "2"}]},
        })
        code, data, _ = jrun(capsys, "degree", "--foliation", f)
        assert code == 0 and data["degree"] == 1

    def test_text_mode(self, capsys, saddle, cusp_field):
        code, out, _ = run(capsys, "degree", "--foliation", saddle)
        assert code == 0 and out.strip() == "degree 1"
        # the text renderers of the other report-printing subcommands
        for argv, lines in [
            (("singularities", "--foliation", saddle),
             ["3 clusters, total Milnor 3 (Bezout 3)",
              "  affine: 1 point(s), modulus t, mu=1",
              "  inf1: 1 point(s), modulus t, mu=1",
              "  inf2: 1 point(s), modulus t, mu=1"]),
            (("classify", "--foliation", saddle),
             ["  affine t: reduced-nondegenerate", "  inf1 t: non-reduced",
              "  inf2 t: non-reduced"]),
            (("reduce", "--foliation", cusp_field),
             ["minimal resolution: 3 blow-ups, 1 tree(s)"]),
            (("first-integral", "--foliation", cusp_field, "--max-m", "3"),
             ["first integral of degree 3"]),
            (("first-integral", "--foliation", saddle, "--max-m", "1"),
             ["no rational first integral of degree <= 1"]),
            (("bound", "first-integral", "--d", "5", "--g", "3", "--height", "2"),
             ["n0 = 26, degree bound 104"]),
            (("examples", "gen", "--family", "linear", "--params", '{"p": 1, "q": 2}'),
             ["linear with {'p': '1', 'q': '2'}", "P = 2*x", "Q = y"]),
        ]:
            code, out, _ = run(capsys, *argv)
            assert (code, out.splitlines()) == (0, lines), argv


class TestInputErrors:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = jrun(capsys, "degree", "--foliation",
                            str(tmp_path / "nope.json"))
        assert code == 2 and "nope.json" in err

    def test_byte_offset_in_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"P": "x", ')
        code, _, err = jrun(capsys, "degree", "--foliation", str(path))
        assert code == 2 and "byte" in err

    def test_bad_poly_string(self, capsys, tmp_path):
        f = write(tmp_path, "bad.json", {"P": "x +* y", "Q": "y"})
        code, _, err = jrun(capsys, "degree", "--foliation", f)
        assert code == 2 and "P" in err

    def test_zero_field_rejected(self, capsys, tmp_path):
        f = write(tmp_path, "zero.json", {"P": "0", "Q": "0"})
        code, _, err = jrun(capsys, "degree", "--foliation", f)
        assert code == 2

    def test_missing_entry(self, capsys, tmp_path):
        f = write(tmp_path, "nop.json", {"P": "x"})
        code, _, err = jrun(capsys, "degree", "--foliation", f)
        assert code == 2 and "needs P and Q" in err


class TestSingularities:
    def test_saddle_totals(self, capsys, saddle):
        code, data, _ = jrun(capsys, "singularities", "--foliation", saddle)
        assert code == 0
        assert data["bezout"] == 3 and data["total_milnor"] == 3
        charts = sorted(c["chart"] for c in data["clusters"])
        assert charts == ["affine", "inf1", "inf2"]

    def test_boxes_are_exact_rationals(self, capsys, tmp_path, monkeypatch):
        f = write(tmp_path, "two.json", {"P": "x^2 - 2", "Q": "y"})
        monkeypatch.setenv("PLANEFOL_PRECISION", "1/64")
        code, data, _ = jrun(capsys, "singularities", "--foliation", f,
                             "--boxes")
        assert code == 0 and data["boxes"]
        from fractions import Fraction
        for box in data["boxes"]:
            lo, hi = (Fraction(v) for v in box["x"]["re"])
            assert hi - lo <= Fraction(1, 64)

    def test_bad_precision(self, capsys, tmp_path, monkeypatch, saddle):
        monkeypatch.setenv("PLANEFOL_PRECISION", "-1")
        code, _, err = jrun(capsys, "singularities", "--foliation", saddle,
                            "--boxes")
        assert code == 2


class TestClassifyAndReduce:
    def test_classify_saddle(self, capsys, saddle):
        code, data, _ = jrun(capsys, "classify", "--foliation", saddle)
        assert code == 0
        kinds = {c["chart"]: c["kind"] for c in data["classification"]}
        assert kinds["affine"] == "reduced-nondegenerate"
        # the resonant infinity points are genuinely non-reduced
        assert kinds["inf1"] == kinds["inf2"] == "non-reduced"

    def test_reduce_cusp(self, capsys, cusp_field):
        code, data, _ = jrun(capsys, "reduce", "--foliation", cusp_field)
        assert code == 0 and data["mode"] == "minimal"
        assert data["blowups"] >= 3

    def test_reduce_cap_exhaustion_exits_3(self, capsys, cusp_field):
        code, data, _ = jrun(capsys, "reduce", "--foliation", cusp_field,
                             "--cap", "1")
        assert code == 3 and "partial" in data

    def test_safe_resolve(self, capsys, saddle):
        code, data, _ = jrun(capsys, "safe-resolve", "--foliation", saddle)
        assert code == 0 and data["mode"] == "safe"
        assert data["reduced_untouched"] == []

    def test_reduce_item3_field(self, capsys, item3_field, wall_clock_ceiling):
        with wall_clock_ceiling(10):
            code, data, _ = jrun(capsys, "reduce", "--foliation", item3_field)
        assert code == 0 and data["blowups"] == 12

    @pytest.mark.parametrize("c, code, affine, digest", [
        ("2", 0, "non-reduced",
         "c6b92a6390f14fecb369b696e16827752c74327053d53313cbfef84229b31ad5"),
        ("3/7", 0, "non-reduced",
         "c6b92a6390f14fecb369b696e16827752c74327053d53313cbfef84229b31ad5"),
        ("1001/1000", 3, "undetermined",
         "78292de4fa4108420bc16c1d1eb36194a9b479c27c415d25cba9a0c9e4031828"),
        ("-2", 0, "reduced-nondegenerate",
         "5878181200b25f6cbbececb82806de492715981cf4da5776b9afabdc474c879b"),
    ])
    def test_classify_ratio_roots_as_recorded(self, capsys, tmp_path, c, code, affine,
                                              digest):
        # the cubic cluster t^3 - 2 has eigenvalue ratios c and 1/c, decided
        # by the real roots of its ratio resultant: a positive rational one
        # of small height, one taller than the height bound, negative ones
        f = write(tmp_path, "ratio.json", {"P": "x^3 - 2", "Q": f"{c}*3*x^2*y"})
        got, out, _ = run(capsys, "--format", "json", "classify", "--foliation", f)
        assert got == code
        rows = json.loads(out)["classification"]
        assert [r["kind"] for r in rows if r["modulus"] == "t^3 - 2"] == [affine]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_safe_resolve_item3_field_refuses(self, capsys, item3_field, wall_clock_ceiling):
        with wall_clock_ceiling(10):
            code, data, _ = jrun(capsys, "safe-resolve", "--foliation", item3_field)
        assert code == 3
        assert data == {"error": "exact blow-up unavailable: "
                                 "no exact coordinates for a degree-4 cluster"}


class TestRefusals:
    """A failed exact computation is refused with exit 3, not raised."""

    # subcommand -> the cli name that runs its computation
    TARGETS = {
        "singularities": "singular_points",
        "classify": "singular_points",
        "reduce": "seidenberg_reduce",
        "safe-resolve": "safe_resolution",
        "index": "total_z",
        "examples census": "dicritical_count",
    }

    @pytest.mark.parametrize("command", list(TARGETS))
    @pytest.mark.parametrize("exc", [DecompositionError, ExactnessError, ArithmeticError,
                                     IsolationError])
    def test_refused_with_exit_3(self, capsys, monkeypatch, tmp_path, saddle, command, exc):
        def fail(*args, **kwargs):
            raise exc("forced failure")

        argv = [*command.split(), "--foliation", saddle]
        if command == "index":
            argv += ["--curve", write(tmp_path, "axis.json", {"f": "y"})]
        monkeypatch.setattr(cli, self.TARGETS[command], fail)
        code, data, err = jrun(capsys, *argv)
        assert code == 3
        assert data == {"error": "forced failure"}
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [CensusUndetermined, BudgetExceeded,
                                     BlowupUnavailableError, ResolutionError])
    def test_census_refusals(self, capsys, monkeypatch, saddle, exc):
        def fail(*args, **kwargs):
            raise exc("forced failure")

        monkeypatch.setattr(cli, "dicritical_count", fail)
        argv = ["examples", "census", "--foliation", saddle]
        code, data, err = jrun(capsys, *argv)
        assert (code, data) == (3, {"error": "forced failure"})
        assert "Traceback" not in err
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "undetermined: forced failure\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, P, Q", [
        ("reduce", "(x^3 - 2)^2", "y^2"),
        ("index", "x^3 - 2", "y"),
    ])
    def test_unavailable_blowup_is_one_undetermined_line(self, capsys, tmp_path,
                                                         command, P, Q):
        # the three real points x^3 = 2 form one cluster of degree 3, which
        # has no exact coordinates to blow up at
        f = write(tmp_path, "f.json", {"vars": ["x", "y"], "P": P, "Q": Q})
        argv = [command, "--foliation", f]
        if command == "index":
            argv += ["--curve", write(tmp_path, "axis.json", {"f": "y"})]
        error = "exact blow-up unavailable: no exact coordinates for a degree-3 cluster"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, f"undetermined: {error}\n")
        assert "Traceback" not in err
        assert jrun(capsys, *argv)[:2] == (3, {"error": error})


class TestIndexAndInvariance:
    def test_z_index_at_point(self, capsys, saddle, tmp_path):
        c = write(tmp_path, "axis.json", {"f": "y"})
        code, data, _ = jrun(capsys, "index", "--foliation", saddle,
                             "--curve", c, "--point", "0,0")
        assert code == 0 and data["z_index"] == 1

    def test_z_index_on_a_reducible_curve(self, capsys, tmp_path):
        # the curve's factor x - 1 also divides P but misses the point
        f = write(tmp_path, "f.json", {"vars": ["x", "y"], "P": "x^2 - x", "Q": "-y"})
        c = write(tmp_path, "c.json", {"f": "x*y - y"})
        code, out, _ = run(capsys, "index", "--foliation", f,
                           "--curve", c, "--point", "0,0")
        assert (code, out) == (0, "z-index 1\n")

    def test_total_z(self, capsys, saddle, tmp_path):
        c = write(tmp_path, "axis.json", {"f": "y"})
        code, data, _ = jrun(capsys, "index", "--foliation", saddle,
                             "--curve", c)
        assert code == 0 and data["Z"] == 2 and len(data["points"]) == 2

    def test_not_invariant_is_input_error(self, capsys, saddle, tmp_path):
        c = write(tmp_path, "par.json", {"f": "y - x^2"})
        code, _, err = jrun(capsys, "index", "--foliation", saddle,
                            "--curve", c, "--point", "0,0")
        assert code == 2

    def test_invariant_check(self, capsys, saddle, tmp_path):
        c = write(tmp_path, "axis.json", {"f": "y"})
        code, data, _ = jrun(capsys, "invariant-check", "--foliation", saddle,
                             "--curve", c)
        assert code == 0
        assert data == {"invariant": True, "cofactor": "-1"}
        c2 = write(tmp_path, "par.json", {"f": "y - x^2"})
        code, data, _ = jrun(capsys, "invariant-check", "--foliation", saddle,
                             "--curve", c2)
        assert code == 0
        assert data == {"invariant": False, "cofactor": None}

    @pytest.mark.parametrize("curve", [
        {"vars": ["y", "x"], "f": "y - x^2"},
        {"vars": ["u", "v"], "f": "v - u^2"},
    ], ids=["permuted", "renamed"])
    def test_curve_variables_aligned_with_field(self, capsys, tmp_path, curve):
        # names the field also uses are matched by name, others by position
        fol = write(tmp_path, "lin.json", {"P": "x", "Q": "2*y"})
        plain = write(tmp_path, "plain.json", {"f": "y - x^2"})
        other = write(tmp_path, "other.json", curve)
        expected = {
            ("invariant-check",): {"invariant": True, "cofactor": "2"},
            ("index", "--point", "0,0"): {"z_index": 1, "point": ["0", "0"]},
            ("index",): None,
        }
        for argv, answer in expected.items():
            code, data, _ = jrun(capsys, *argv, "--foliation", fol, "--curve", plain)
            assert code == 0
            if answer is not None:
                assert data == answer
            assert jrun(capsys, *argv, "--foliation", fol, "--curve", other)[:2] == (0, data)


class TestCurveCommands:
    def test_extactic(self, capsys, tmp_path):
        f = write(tmp_path, "lin.json", {"P": "x", "Q": "2*y"})
        code, data, _ = jrun(capsys, "extactic", "--foliation", f, "--m", "1")
        assert code == 0 and data["vanishes"] is False
        code, data, _ = jrun(capsys, "extactic", "--foliation", f, "--m", "2")
        assert code == 0 and data["vanishes"] is True

    def test_first_integral(self, capsys, tmp_path):
        f = write(tmp_path, "lin.json", {"P": "3*x", "Q": "2*y"})
        code, data, _ = jrun(capsys, "first-integral", "--foliation", f,
                             "--max-m", "5")
        assert code == 0 and data["first_integral_degree"] == 3
        f2 = write(tmp_path, "shear.json", {"P": "x", "Q": "4*y - 2*x^2"})
        code, data, _ = jrun(capsys, "first-integral", "--foliation", f2,
                             "--max-m", "3")
        assert code == 0 and data["first_integral_degree"] is None

    def test_first_integral_of_lins_neto_one(self, capsys, tmp_path, wall_clock_ceiling):
        # two leaves of the cubic pencil certify E_3 == 0 without expanding it
        f = write(tmp_path, "lins.json", {"P": "(x^3 - 1)*(x - y^2)", "Q": "(y^3 - 1)*(y - x^2)"})
        with wall_clock_ceiling(10):
            code, data, _ = jrun(capsys, "first-integral", "--foliation", f, "--max-m", "3")
        assert code == 0 and data == {"first_integral_degree": 3, "max_m": 3}

    def test_genus_smooth_quartic(self, capsys, tmp_path):
        c = write(tmp_path, "q.json", {"f": "x^4 + y^4 - 1"})
        code, data, _ = jrun(capsys, "genus", "--curve", c)
        assert code == 0 and data["genus"] == 3

    def test_genus_nodal_cubic(self, capsys, tmp_path):
        c = write(tmp_path, "n.json", {"f": "y^2 - x^2*(x + 1)"})
        code, data, _ = jrun(capsys, "genus", "--curve", c)
        assert code == 0 and data["genus"] == 0

    def test_genus_cusp_needs_deltas(self, capsys, tmp_path):
        c = write(tmp_path, "c.json", {"f": "y^2 - x^3"})
        code, data, _ = jrun(capsys, "genus", "--curve", c)
        assert code == 3
        code, data, _ = jrun(capsys, "genus", "--curve", c,
                             "--deltas", "[1]")
        assert code == 0 and data["genus"] == 0

    def test_genus_deltas_taken_as_given(self, capsys, tmp_path):
        # --deltas names every singular point, nodes included, and is not
        # checked against the clusters: this quartic has a point that is not
        # a node at the origin and a 2-point node cluster at infinity, yet the
        # one-entry list [1] is taken as given: 3 - 1 = 2
        c = write(tmp_path, "q.json", {"f": "(x^2+y^2)^2 - x*y^2 - x^3"})
        code, data, _ = jrun(capsys, "genus", "--curve", c, "--deltas", "[1]")
        assert code == 0 and data["genus"] == 2
        assert [(s["count"], s["node"]) for s in data["singular_clusters"]] == \
            [(1, False), (2, True)]


class TestBound:
    def test_first_integral_worked_example(self, capsys, tmp_path):
        oracle = write(tmp_path, "squares.json",
                       {"P": [str(n * n) for n in range(1, 11)]})
        code, data, _ = jrun(capsys, "bound", "first-integral",
                             "--d", "4", "--g", "2", "--oracle", oracle)
        assert code == 0 and data["n0"] == 2 and data["bound"] == 6

    def test_exhaustion_exits_3(self, capsys, tmp_path):
        oracle = write(tmp_path, "tiny.json", {"P": ["0", "0"]})
        code, _, err = jrun(capsys, "bound", "first-integral",
                            "--d", "4", "--g", "2", "--oracle", oracle)
        assert code == 3 and "increase oracle range" in err

    def test_height_mode(self, capsys):
        code, data, _ = jrun(capsys, "bound", "first-integral",
                             "--d", "5", "--g", "3", "--height", "2")
        assert code == 0 and data["n_star"] == 13 and data["bound"] == 104

    def test_invariant_curve_with_quasi_reduced_z(self, capsys, tmp_path):
        oracle = write(tmp_path, "big.json",
                       {"P": [str(10 * n * n) for n in range(1, 40)]})
        code, data, _ = jrun(capsys, "bound", "invariant-curve",
                             "--d", "2", "--g", "0", "--oracle", oracle,
                             "--z-quasi-reduced")
        assert code == 0
        assert data["Z"] == 28 and data["Z_hypothesis"] == "quasi-reduced"

    def test_flag_validation(self, capsys, tmp_path):
        code, _, err = jrun(capsys, "bound", "first-integral",
                            "--d", "4", "--g", "2")
        assert code == 2
        oracle = write(tmp_path, "o.json", {"height": 1})
        code, _, err = jrun(capsys, "bound", "invariant-curve",
                            "--d", "4", "--g", "0", "--oracle", oracle)
        assert code == 2 and "--Z" in err
        # a flag the chosen bound would not read is rejected, never dropped
        for which, extra, flag in [
            ("first-integral", ("--oracle", oracle, "--height", "2"), "--height"),
            ("first-integral", ("--height", "2", "--Z", "3"), "--Z"),
            ("first-integral", ("--height", "2", "--z-quasi-reduced"), "--z-quasi-reduced"),
            ("invariant-curve", ("--oracle", oracle, "--Z", "3", "--height", "2"), "--height"),
            ("invariant-curve", ("--oracle", oracle, "--Z", "3", "--z-quasi-reduced"), "--Z"),
        ]:
            code, out, err = jrun(capsys, "bound", which, "--d", "4", "--g", "2", *extra)
            assert (code, out) == (2, None), (which, extra)
            assert err.startswith("error: ") and flag in err, (which, extra, err)
        code, _, err = jrun(capsys, "bound", "first-integral", "--d", "4", "--g", "2",
                            "--oracle", oracle, "--height", "2")
        assert "an oracle file can carry a height" in err
        # values out of the range a bound accepts are bad input too
        for argv in [
            ("first-integral", "--d", "-1", "--g", "2", "--height", "1"),
            ("first-integral", "--d", "4", "--g", "1", "--height", "1"),
            ("first-integral", "--d", "4", "--g", "3", "--height", "0"),
            ("invariant-curve", "--oracle", oracle, "--d", "3", "--g", "-1", "--Z", "1"),
            ("invariant-curve", "--oracle", oracle, "--d", "3", "--g", "1", "--Z", "-1"),
            ("invariant-curve", "--oracle", oracle, "--d", "0", "--g", "1",
             "--z-quasi-reduced"),
            ("invariant-curve", "--oracle", oracle, "--d", "-2", "--g", "1", "--Z", "0"),
        ]:
            code, out, err = jrun(capsys, "bound", *argv)
            assert (code, out) == (2, None), argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


class TestExamples:
    def test_gen_pipes_into_degree(self, capsys, tmp_path):
        code, data, _ = jrun(capsys, "examples", "gen",
                             "--family", "lins_neto",
                             "--params", '{"alpha": "2"}')
        assert code == 0
        fol = write(tmp_path, "gen.json", data["foliation"])
        code, deg, _ = jrun(capsys, "degree", "--foliation", fol)
        assert code == 0 and deg["degree"] == 4

    def test_gen_linear_descriptor(self, capsys):
        code, data, _ = jrun(capsys, "examples", "gen", "--family", "linear",
                             "--params", '{"p": -1, "q": 1}')
        assert code == 0
        assert data["descriptor"]["claimed"]["first_integral_degree"] == "2"

    def test_gen_bad_params(self, capsys):
        code, _, err = jrun(capsys, "examples", "gen", "--family", "linear",
                            "--params", '{"p": 0, "q": 1}')
        assert code == 2
        code, _, err = jrun(capsys, "examples", "gen", "--family", "linear",
                            "--params", '{"p": 1}')
        assert code == 2

    def test_census_radial(self, capsys):
        code, data, _ = jrun(capsys, "examples", "census",
                             "--family", "linear",
                             "--params", '{"p": 1, "q": 1}')
        assert code == 0 and data["dicritical_count"] == 1

    def test_census_budget_exit_3(self, capsys):
        code, data, _ = jrun(capsys, "examples", "census",
                             "--family", "lins_neto",
                             "--params", '{"alpha": "0"}',
                             "--budget-seconds", "1e-9")
        assert code == 3

    def test_census_from_file(self, capsys, tmp_path, saddle):
        code, data, _ = jrun(capsys, "examples", "census",
                             "--foliation", saddle)
        assert code == 0 and data["dicritical_count"] == 2


class TestDeterminism:
    def test_json_byte_identical_across_runs(self, capsys, saddle):
        code1, out1, _ = run(capsys, "--format", "json",
                             "classify", "--foliation", saddle)
        code2, out2, _ = run(capsys, "--format", "json",
                             "classify", "--foliation", saddle)
        assert code1 == code2 == 0 and out1 == out2

    def test_reports_reparse(self, capsys, saddle, tmp_path):
        for argv in (
            ("degree", "--foliation", saddle),
            ("singularities", "--foliation", saddle),
            ("safe-resolve", "--foliation", saddle),
        ):
            code, data, _ = jrun(capsys, *argv)
            assert code == 0 and isinstance(data, dict)


class TestParser:
    def test_parser_is_built_once_and_reused(self, capsys, saddle):
        assert cli._build_parser() is cli._build_parser()
        code, data, _ = jrun(capsys, "degree", "--foliation", saddle)
        assert code == 0 and data["degree"] == 1
        # a different subcommand on the same parser still parses its own options
        code, data, _ = jrun(capsys, "classify", "--foliation", saddle)
        assert code == 0 and isinstance(data, dict)
        code, data, _ = jrun(capsys, "bound", "first-integral",
                             "--d", "5", "--g", "3", "--height", "2")
        assert code == 0 and data["bound"] == 104
        # a bad argv still exits 2 with a usage message
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2 and "--foliation" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        code, data, _ = jrun(capsys, "degree", "--foliation", saddle)
        assert code == 0 and data["degree"] == 1


class TestExitCodes:
    """Every run on a small field computes (0), rejects its input (2) or
    refuses (3) within a ceiling; it never raises."""

    @given(field=quadratic_fields())
    @settings(max_examples=20, deadline=None)
    def test_exit_codes_on_random_quadratic_fields(self, field, tmp_path_factory,
                                                   wall_clock_ceiling):
        folder = tmp_path_factory.mktemp("field")
        fol = write(folder, "fol.json", field)
        curve = write(folder, "curve.json", {"f": "y"})
        for argv in (("reduce",), ("safe-resolve",), ("index", "--curve", curve),
                     ("singularities",), ("classify",)):
            out, err = io.StringIO(), io.StringIO()
            with wall_clock_ceiling(10), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["--format", "json", *argv, "--foliation", fol])
            assert code in (0, 2, 3), (argv, field, code, err.getvalue())

    @given(d=st.integers(-3, 6), g=st.integers(-2, 4), height=st.integers(-1, 3),
           Z=st.none() | st.integers(-2, 5),
           oracle=st.sampled_from([{"height": 1}, {"P": ["0", "1", "4"]}]))
    @settings(max_examples=60, deadline=None)
    def test_bound_exit_codes_on_small_integers(self, d, g, height, Z, oracle,
                                                tmp_path_factory, wall_clock_ceiling):
        # Z = None asks for --z-quasi-reduced
        path = write(tmp_path_factory.mktemp("oracle"), "oracle.json", oracle)
        z = ("--z-quasi-reduced",) if Z is None else ("--Z", str(Z))
        for argv in (("first-integral", "--height", str(height)),
                     ("first-integral", "--oracle", path),
                     ("invariant-curve", "--oracle", path, *z)):
            out, err = io.StringIO(), io.StringIO()
            with wall_clock_ceiling(10), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["--format", "json", "bound", *argv, "--d", str(d), "--g", str(g)])
            assert code in (0, 2, 3), (argv, d, g, code, err.getvalue())
            assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("command", ["reduce", "safe-resolve"])
    @pytest.mark.parametrize("cap", ["0", "-1", "-3"])
    def test_resolution_rejects_a_cap_below_one(self, tmp_path, capsys, command, cap):
        # the radial point needs one blow-up, so a cap below 1 used to run
        # out of budget and exit 3
        fol = write(tmp_path, "fol.json", {"P": "x", "Q": "y"})
        code, out, err = run(capsys, command, "--foliation", fol, "--cap", cap)
        assert code == 2 and out == "" and err.startswith("error: --cap must be at least 1")

    @pytest.mark.parametrize("budget", ["nan", "0", "-1"])
    def test_census_rejects_a_budget_that_is_not_positive(self, capsys, budget):
        # NaN never compares past a deadline, so it would run unbudgeted
        code, _, err = run(capsys, "examples", "census", "--family", "lins_neto",
                           "--params", '{"alpha": "2"}', "--budget-seconds", budget)
        assert code == 2 and err.startswith("error: --budget-seconds:")


def _poly_json(*terms):
    return {"vars": ["x", "y"], "terms": list(terms)}


class TestMalformedJson:
    """Input files of the wrong shape are rejected with exit 2 and an
    `error:` line, never with a traceback or a silent misreading."""

    @pytest.mark.parametrize("field", [
        {"vars": 5, "P": "x", "Q": "y"},
        {"vars": "xy", "P": "x", "Q": "y"},
        {"vars": ["x", "x"], "P": "x", "Q": "x"},
        {"vars": [], "P": "1", "Q": "1"},
        {"P": {"vars": ["x", "y"], "terms": 5}, "Q": "y"},
        {"P": _poly_json(5), "Q": "y"},
        {"P": _poly_json({"exp": [1.5, 0], "coef": "1"}), "Q": "y"},
        {"P": _poly_json({"exp": [-1, 0], "coef": "1"}), "Q": "y"},
        {"P": _poly_json({"exp": [1], "coef": "1"}), "Q": "y"},
        {"P": _poly_json({"exp": [1, 0], "coef": "1"}, {"exp": [1, 0], "coef": "2"}),
         "Q": "y"},
        {"P": _poly_json({"exp": [1, 0], "coef": 0.1}), "Q": "y"},
        {"P": _poly_json({"exp": [1, 0], "coef": "1/0"}), "Q": "y"},
    ], ids=["vars-int", "vars-str", "vars-repeated", "vars-empty", "terms-int",
            "term-int", "exp-float", "exp-negative", "exp-short", "exp-twice",
            "coef-float", "coef-zero-denominator"])
    def test_foliation_file(self, capsys, tmp_path, field):
        f = write(tmp_path, "bad.json", field)
        code, out, err = run(capsys, "degree", "--foliation", f)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_curve_file(self, capsys, tmp_path):
        c = write(tmp_path, "bad.json", {"vars": 5, "f": "y"})
        code, _, err = run(capsys, "genus", "--curve", c)
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("extra", [
        {"genus": [1]}, {"genus": -1}, {"genus": 1.0}, {"genus": "1"}, {"genus": True},
        {"smooth": 1}, {"smooth": "yes"}, {"smooth": [True]},
    ], ids=["genus-list", "genus-negative", "genus-float", "genus-str", "genus-bool",
            "smooth-int", "smooth-str", "smooth-list"])
    def test_curve_metadata(self, capsys, tmp_path, extra):
        c = write(tmp_path, "bad.json", {"f": "x^2+y^2-1", **extra})
        code, out, err = run(capsys, "genus", "--curve", c)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("extra, g", [
        ({"genus": 0}, 0), ({"genus": None}, 0), ({"smooth": True}, 0),
        ({"genus": 0, "smooth": False}, 0),
    ], ids=["genus-0", "genus-null", "smooth-true", "smooth-false"])
    def test_curve_metadata_accepted(self, capsys, tmp_path, extra, g):
        c = write(tmp_path, "ok.json", {"f": "x^2+y^2-1", **extra})
        code, data, _ = jrun(capsys, "genus", "--curve", c)
        assert code == 0 and data["genus"] == g

    @pytest.mark.parametrize("oracle", [{"P": 5}, {"height": [1]}, {"P": [1.5]}],
                             ids=["P-int", "height-list", "P-float"])
    def test_oracle_file(self, capsys, tmp_path, oracle):
        o = write(tmp_path, "bad.json", oracle)
        code, _, err = run(capsys, "bound", "first-integral", "--d", "4", "--g", "2",
                           "--oracle", o)
        assert code == 2 and err.startswith("error: ")

    def test_point_with_zero_denominator(self, capsys, tmp_path, saddle):
        c = write(tmp_path, "line.json", {"f": "x"})
        code, out, err = run(capsys, "--format", "json", "index", "--foliation", saddle,
                             "--curve", c, "--point", "1/0,0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("deltas", ["[1.5]", "[true]", "[-4]", "[0]", '["1"]', "[2]",
                                        '{"d": 1}', "1"],
                             ids=["float", "bool", "negative", "zero", "str",
                                  "above-smooth-genus", "object", "int"])
    def test_deltas(self, capsys, tmp_path, deltas):
        # the cusp cubic has smooth genus 1, so its deltas total at most 1
        c = write(tmp_path, "cusp.json", {"f": "y^2 - x^3"})
        code, out, err = run(capsys, "genus", "--curve", c, "--deltas", deltas)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("action", ["gen", "census"])
    @pytest.mark.parametrize("family, params", [
        ("lins_neto", '{"alpha": 0.1}'),
        ("lins_neto", '{"alpha": true}'),
        ("linear", '{"p": 1.5, "q": 1}'),
        ("power_pullback", '{"alpha": 0, "r": true}'),
        ("power_pullback", '{"alpha": 0, "r": [2]}'),
    ], ids=["alpha-float", "alpha-bool", "p-float", "r-bool", "r-list"])
    def test_family_params(self, capsys, action, family, params):
        code, out, err = run(capsys, "examples", action, "--family", family,
                             "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
