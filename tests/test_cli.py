"""Command-line contract: schema round-trips, determinism, exit codes."""

import json
import math
import os

import pytest

from levycm import (
    PhiRep,
    PhiTable,
    RationalProduct,
    ShiftedSpec,
    StableSum,
    ValidationError,
    verify,
)
from levycm.cli import main
from levycm.fluctuation import pr_laplace
from levycm.rogers import LevyAtomic, LimitsResult, compensator_drift, eval_f, validate_spec
from levycm.specio import (
    SHOWCASE,
    format_float,
    load_spec,
    preset_names,
    preset_path,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from levycm.spine import build_spine_table
from levycm.verify import default_spine_range
from levycm.wiener_hopf import factor_pair, wh_product


# a jump diffusion with two-sided exponential jumps (the Monte Carlo workload's jump_gauss)
JUMP_GAUSS = LevyAtomic(a=0.3, b=-0.2, atoms=((1.0, 2.0), (-2.0, 4.0)))


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestSpecIo:
    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_round_trip(self, name, tmp_path):
        spec = SHOWCASE[name]
        path = tmp_path / f"{name}.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert validate_spec(back) == validate_spec(spec)
        assert spec_from_dict(spec_to_dict(back)) == back

    def test_preset_loading(self):
        assert load_spec("preset:bm_drift") == SHOWCASE["bm_drift"]

    def test_presets_are_the_bundled_files(self):
        assert preset_names() == (
            "bm_drift",
            "stable_asym",
            "tempered_stable",
            "stable_mixed",
            "quadratic_over_pole",
            "rational_pole_pair",
            "rational_three_arcs",
            "rational_three_arcs_tight",
        )
        for name in preset_names():
            assert SHOWCASE[name] == load_spec(str(preset_path(name)))

    def test_phi_table_round_trip(self, tmp_path):
        from levycm import PhiRep, PhiTable

        spec = PhiRep(
            1.5,
            PhiTable((-2.0, 0.0, 1.0, 4.0), (0.3, 1.9, 0.7), "piecewise-constant"),
        )
        path = tmp_path / "phi.json"
        save_spec(spec, path)
        assert load_spec(path) == spec
        linear = PhiRep(
            0.8, PhiTable((-1.0, 2.0, 5.0), (0.1, 2.2, 1.0), "piecewise-linear")
        )
        save_spec(linear, path)
        assert load_spec(path) == linear


NAN, INF = math.nan, math.inf
_TERM = {"w": 1.0, "m": 0.0, "alpha": 0.5, "orientation": "minus-i"}
_FACTOR = {"orientation": "plus-i", "m": 2.0, "exponent": -1}


def _phi(breakpoints, values, interpolation="piecewise-linear", c=1.0):
    return PhiRep(c, PhiTable(breakpoints, values, interpolation))


# (spec or JSON document, field): a spec breaks one rule of rogers._structural_validate or
# PhiTable.validate; a document, one type rule of specio.spec_from_dict or a number past the floats
SPEC_RULES = [
    (LevyAtomic(a=NAN, b=0.5), "a"),
    (LevyAtomic(a=-1.0), "a"),
    (LevyAtomic(b=INF), "b"),
    (LevyAtomic(b=NAN), "b"),
    (LevyAtomic(c=-1.0), "c"),
    (LevyAtomic(c=INF), "c"),
    (LevyAtomic(atoms=((0.0, 1.0),)), "atoms[0].s"),
    (LevyAtomic(atoms=((NAN, 1.0),)), "atoms[0].s"),
    (LevyAtomic(atoms=((1.0, -1.0),)), "atoms[0].w"),
    (LevyAtomic(atoms=((1.0, INF),)), "atoms[0].w"),
    (StableSum(((NAN, 0.0, 0.5, "minus-i"),)), "terms[0].w"),
    (StableSum(((-1.0, 0.0, 0.5, "minus-i"),)), "terms[0].w"),
    (StableSum(((1.0, INF, 0.5, "minus-i"),)), "terms[0].m"),
    (StableSum(((1.0, 0.0, 2.5, "minus-i"),)), "terms[0].alpha"),
    (StableSum(((1.0, 0.0, NAN, "minus-i"),)), "terms[0].alpha"),
    (StableSum(((1.0, 0.0, 0.5, "up"),)), "terms[0].orientation"),
    (StableSum(((1.0, 1.0, 1.5, "minus-i"),)), "terms[0].m"),
    (RationalProduct(NAN, ()), "prefactor"),
    (RationalProduct(0.0, ()), "prefactor"),
    (RationalProduct(INF, ()), "prefactor"),
    (RationalProduct(1.0, (("down", 2.0, -1),)), "factors[0].orientation"),
    (RationalProduct(1.0, (("plus-i", NAN, -1),)), "factors[0].m"),
    (RationalProduct(1.0, (("plus-i", -2.0, -1),)), "factors[0].m"),
    (RationalProduct(1.0, (("plus-i", 2.0, 2),)), "factors[0].exponent"),
    (_phi((-1.0, 1.0), (1.0, 1.0), c=NAN), "c"),
    (_phi((-1.0, 1.0), (1.0, 1.0), c=0.0), "c"),
    (_phi((-1.0, 1.0), (1.0, 1.0), "cubic"), "phi.interpolation"),
    (_phi((1.0,), (1.0,)), "phi.breakpoints"),
    (_phi((-1.0, NAN, 1.0), (1.0, 1.0, 1.0)), "phi.breakpoints"),
    (_phi((-1.0, INF), (1.0, 1.0)), "phi.breakpoints"),
    (_phi((1.0, -1.0), (1.0, 1.0)), "phi.breakpoints"),
    (_phi((-1.0, 1.0), (1.0,)), "phi.values"),
    (_phi((-1.0, 1.0), (1.0, 4.0)), "phi.values[1]"),
    (_phi((-1.0, 1.0), (NAN,), "piecewise-constant"), "phi.values[0]"),
    (ShiftedSpec(LevyAtomic(a=0.5), NAN), "shift"),
    (ShiftedSpec(LevyAtomic(a=-0.5), 1.0), "a"),
    ("bm_drift", "type"),
    ({"type": "levy_atomic", "a": "x"}, "a"),
    ({"type": "levy_atomic", "b": None}, "b"),
    ({"type": "levy_atomic", "a": 10**400}, "a"),
    ({"type": "levy_atomic", "atoms": [1, 2]}, "atoms[0]"),
    ({"type": "levy_atomic", "atoms": {"s": 1.0, "w": 1.0}}, "atoms"),
    ({"type": "levy_atomic", "atoms": [{"s": 1.0, "w": "1"}]}, "atoms[0].w"),
    ({"type": "levy_atomic", "atoms": [{"w": 1.0}]}, "atoms[0].s"),
    ({"type": "stable_sum", "terms": [dict(_TERM, m=[0.0])]}, "terms[0].m"),
    ({"type": "stable_sum", "terms": [dict(_TERM, orientation=1)]}, "terms[0].orientation"),
    ({"type": "stable_sum", "terms": "w"}, "terms"),
    ({"type": "rational_product", "factors": [_FACTOR]}, "prefactor"),
    ({"type": "rational_product", "prefactor": 1.0, "factors": [dict(_FACTOR, exponent=1.0)]},
     "factors[0].exponent"),
    ({"type": "rational_product", "prefactor": 1.0, "factors": [[]]}, "factors[0]"),
    ({"type": "phi_table", "c": 1.0, "phi": {"breakpoints": [0, "q"], "values": [1, 1]}}, "phi.breakpoints[1]"),
    ({"type": "phi_table", "c": 1.0, "phi": {"breakpoints": [0, 1], "values": 1}}, "phi.values"),
    ({"type": "phi_table", "c": 1.0, "phi": {"breakpoints": [0, 1], "values": [1, 1], "interpolation": 0}},
     "phi.interpolation"),
    ({"type": "phi_table", "c": 1.0, "phi": [0, 1]}, "phi"),
    ({"type": "phi_table", "phi": {"breakpoints": [0, 1], "values": [1, 1]}}, "c"),
    ({"type": "cubic"}, "type"),
    ([], ""),
]


class TestSpecRules:
    """Every rule that admits a spec, each broken alone.  A spec goes through ``validate_spec`` and,
    written as a spec file, through ``levycm eval``; a JSON document through ``spec_from_dict`` and
    ``levycm eval``.  Both raise ``ValidationError`` naming the field, and the command exits 2 with
    the JSON error envelope and nothing on stderr.  Shifted specs and non-specs have no spec file."""

    @pytest.mark.parametrize("case,field", SPEC_RULES, ids=[f"{k}-{f}" for k, (_, f) in enumerate(SPEC_RULES)])
    def test_rule_names_its_field(self, capsys, tmp_path, case, field):
        parse = validate_spec if not isinstance(case, (dict, list)) else spec_from_dict
        with pytest.raises(ValidationError) as exc:
            parse(case)
        assert exc.value.field == field
        if isinstance(case, (str, ShiftedSpec)):
            return
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(case if parse is spec_from_dict else spec_to_dict(case)))
        code = main(["eval", str(path), "--xi", "1,0"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        doc = json.loads(captured.out)
        assert doc == {"code": "validation", "message": exc.value.message, "field": field}

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "nested"])
    def test_unreadable_spec_file(self, capsys, tmp_path, kind):
        """A spec path that is no JSON document exits 2 with the envelope, not a traceback."""
        path = tmp_path / "spec.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" if kind == "not-utf8" else b"[" * 100_000)
        code = main(["eval", str(path), "--xi", "1,0"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert set(json.loads(captured.out)) == {"code", "message", "field"}

    def test_parsed_spec_is_not_reordered(self):
        """A spec file's terms stay in its order: the rational presets are not canonical, and their
        values are built on the order as written."""
        spec = SHOWCASE["rational_three_arcs"]
        assert spec.factors != validate_spec(spec).factors
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestCommands:
    def test_eval(self, capsys):
        code, out = run_cli(capsys, "eval", "preset:bm_drift", "--xi", "1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == {"re": 0.5, "im": -1.0}

    def test_eval_malformed_point(self, capsys):
        code, out = run_cli(capsys, "eval", "preset:bm_drift", "--xi", "1;0")
        assert code == 2
        assert json.loads(out)["field"] == "xi"

    def test_invalid_spec_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "levy_atomic", "atoms": [{"s": 1.0, "w": -1.0}]}')
        code, out = run_cli(capsys, "eval", str(path), "--xi", "1,0")
        assert code == 2
        doc = json.loads(out)
        assert doc["field"] == "atoms[0].w"

    def test_missing_file(self, capsys):
        code, out = run_cli(capsys, "eval", "/nonexistent.json", "--xi", "1,0")
        assert code == 2

    def test_spine_csv_contract(self, capsys, tmp_path):
        csv_path = tmp_path / "spine.csv"
        code, out = run_cli(
            capsys,
            "spine",
            "preset:bm_drift",
            "--rmin",
            "0.1",
            "--rmax",
            "10",
            "--n",
            "200",
            "--out",
            str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        lo, hi = doc["z_intervals"][0]
        assert lo == pytest.approx(1.0, abs=1e-6)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "r,theta,re_zeta,im_zeta,lambda,in_Z"
        assert len(lines) == 201
        for line in lines[1:]:
            r, theta, re_z, im_z, lam, in_z = line.split(",")
            if float(r) > 1.0 + 1e-6 and in_z == "1":
                assert abs(float(im_z) - 1.0) < 1e-6
        s = build_spine_table(SHOWCASE["bm_drift"], 0.1, 10.0, 200).samples
        columns = zip(s.r, s.theta, s.zeta.real, s.zeta.imag, s.lam, s.in_Z)
        assert lines[1:] == [
            ",".join([*map(format_float, values), "1" if in_z else "0"])
            for *values, in_z in columns
        ]

    @pytest.mark.parametrize("given", ["--rmin", "--rmax"])
    def test_spine_keeps_given_range_end(self, capsys, tmp_path, given):
        """One range end given: it is kept, the other comes from the default range."""
        value = {"--rmin": 0.5, "--rmax": 20.0}[given]
        code, out = run_cli(
            capsys, "spine", "preset:bm_drift", given, str(value), "--out", str(tmp_path / "s.csv")
        )
        assert code == 0
        grid = json.loads(out)["grid"]
        lo, hi = default_spine_range(SHOWCASE["bm_drift"])
        assert (grid["r_min"], grid["r_max"]) == ((value, hi) if given == "--rmin" else (lo, value))

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_verify_spine_suite(self, capsys, name):
        code, out = run_cli(capsys, "verify", f"preset:{name}", "--suite", "spine")
        assert code == 0
        assert json.loads(out)["n_failures"] == 0

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_verify_wh_suite(self, capsys, name):
        code, out = run_cli(capsys, "verify", f"preset:{name}", "--suite", "wh")
        assert code == 0
        assert json.loads(out)["n_failures"] == 0

    def test_verify_wh_suite_compound_poisson(self, capsys, tmp_path):
        """b = compensator drift: the spine route must not lose f to cancellation."""
        atoms = ((2.0, 3.0), (-1.5, 2.0))
        path = tmp_path / "cp.json"
        save_spec(LevyAtomic(b=compensator_drift(LevyAtomic(atoms=atoms)), atoms=atoms), path)
        code, out = run_cli(capsys, "verify", str(path), "--suite", "wh")
        assert code == 0
        assert json.loads(out)["n_failures"] == 0

    @pytest.mark.parametrize("suite", ["core", "fluct"])
    def test_core_and_fluct_suites_compound_poisson(self, suite):
        """A bounded exponent: core checks the finite f(inf-), fluct kappa-circ against quadrature."""
        atoms = ((2.0, 3.0), (-1.5, 2.0))
        rep = verify.run_suite(suite, LevyAtomic(b=compensator_drift(LevyAtomic(atoms=atoms)), atoms=atoms))
        names = {c.name for c in rep.checks}
        want = {"core": {"limit-infinity"}, "fluct": {"kappa-circ[0.5]", "kappa-circ[2.0]"}}[suite]
        assert want <= names, names
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_verify_fluct_suite(self, capsys, name):
        code, out = run_cli(capsys, "verify", f"preset:{name}", "--suite", "fluct")
        assert code == 0
        assert json.loads(out)["n_failures"] == 0

    @pytest.mark.parametrize("spec", ["preset:bm_drift", "jump_gauss"])
    def test_verify_mc_suite(self, capsys, tmp_path, spec):
        if spec == "jump_gauss":
            spec = str(tmp_path / "jump_gauss.json")
            save_spec(JUMP_GAUSS, spec)
        code, out = run_cli(capsys, "verify", spec, "--suite", "mc")
        assert code == 0
        doc = json.loads(out)
        assert (doc["suite"], doc["n_checks"], doc["n_failures"]) == ("monte-carlo", 4, 0)

    def test_verify_core_suite_levy_khintchine(self, capsys, tmp_path):
        """An atomic spec adds the jump-integral checks to the core suite."""
        counts = []
        for spec in (JUMP_GAUSS, LevyAtomic(a=JUMP_GAUSS.a, b=JUMP_GAUSS.b)):
            path = tmp_path / "spec.json"
            save_spec(spec, path)
            code, out = run_cli(capsys, "verify", str(path), "--suite", "core")
            doc = json.loads(out)
            assert (code, doc["n_failures"]) == (0, 0)
            counts.append(doc["n_checks"])
        assert counts[0] - counts[1] == verify._LK_POINTS

    def test_factor_oracle(self, capsys):
        code, out = run_cli(
            capsys,
            "factor",
            "preset:bm_drift",
            "--method",
            "bd",
            "--side",
            "plus",
            "--xi1",
            "1",
            "--xi2",
            "2",
            "--tau",
            "1",
        )
        assert code == 0
        want = math.sqrt(3.0) / (1.0 + math.sqrt(3.0))
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-8)

    def test_factor_product_artifact(self, capsys):
        """The bd product against f+(xi1) f-(xi2) of the cached phi-route handles, byte for byte."""
        code, out = run_cli(capsys, "factor", "preset:bm_drift", "--product", "--xi1", "1", "--xi2", "2")
        assert code == 0
        value = wh_product(SHOWCASE["bm_drift"], "bd", 1.0, 2.0)
        plus, minus = factor_pair(SHOWCASE["bm_drift"])
        cross = complex(plus.eval(1.0 + 0j) * minus.eval(2.0 + 0j)).real
        want = {"method": "bd", "side": "plus", "xi1": 1.0, "xi2": 2.0, "tau": 0.0, "product": True,
                "value": value, "err_estimate": abs(value - cross)}
        assert out == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("method,cross", [("spine", "bd"), ("phi", "bd")])
    def test_factor_product_cross_route(self, capsys, method, cross):
        code, out = run_cli(
            capsys, "factor", "preset:stable_mixed", "--product", "--xi1", "0.7", "--xi2", "2.3",
            "--method", method,
        )
        assert code == 0
        doc = json.loads(out)
        value = wh_product(SHOWCASE["stable_mixed"], method, 0.7, 2.3)
        assert doc["value"] == value
        assert doc["err_estimate"] == abs(value - wh_product(SHOWCASE["stable_mixed"], cross, 0.7, 2.3))

    def test_fluct_pr(self, capsys, tmp_path):
        spec = tmp_path / "bm.json"
        spec.write_text('{"type": "levy_atomic", "a": 0.5}')
        code, out = run_cli(
            capsys, "fluct", str(spec), "pr", "--sigma", "0.5", "--tau", "0", "--xi", "1"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5, rel=1e-8)

    @pytest.mark.parametrize(
        "query,args,chain",
        [
            ("pr", ("--tau", "0", "--xi", "1"), ["bd_kappa"]),
            ("pr", ("--tau", "1.5", "--xi", "0"), ["bd_kappa"]),
            ("pr", ("--tau", "1.5", "--xi", "1"), ["bd_kappa"]),
            ("pr", ("--tau", "0", "--xi", "0"), []),
            ("sup-laplace", ("--xi", "1"), ["bd_kappa"]),
            ("sup-laplace", ("--xi", "0"), []),
            ("sup-tail", ("--x", "1"), ["wh_boundary_measure"]),
        ],
    )
    def test_fluct_chain_lists_computed_ratios(self, capsys, tmp_path, query, args, chain):
        spec = tmp_path / "bm.json"
        spec.write_text('{"type": "levy_atomic", "a": 0.5}')
        code, out = run_cli(capsys, "fluct", str(spec), query, "--sigma", "0.5", *args)
        assert code == 0
        assert json.loads(out)["method_chain"] == chain

    @pytest.mark.parametrize(
        "query,method,tau,chain",
        [
            ("pr", "bd", 0.3, ["bd_kappa"]),
            ("pr", "spine", 0.3, ["kappa_ratio_tau", "kappa_ratio_xi:spine"]),
            ("pr", "phi", 0.3, ["kappa_ratio_tau", "kappa_ratio_xi:phi"]),
            ("sup-laplace", "spine", 0.0, ["kappa_ratio_xi:spine"]),
        ],
        ids=["pr-bd", "pr-spine", "pr-phi", "sup-laplace-spine"],
    )
    def test_fluct_pr_takes_the_method(self, capsys, query, method, tau, chain):
        """--method picks the pr_laplace route, and method_chain names it."""
        extra = ("--tau", str(tau)) if query == "pr" else ()
        code, out = run_cli(
            capsys, "fluct", "preset:tempered_stable", query, "--sigma", "0.5", "--xi", "1",
            "--method", method, *extra,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pr_laplace(SHOWCASE["tempered_stable"], 0.5, tau, 1.0, method=method)
        assert doc["method_chain"] == chain

    @pytest.mark.parametrize("query", ["sup-laplace", "pr"])
    def test_fluct_without_xi_is_a_validation_error(self, capsys, query):
        code, out = run_cli(capsys, "fluct", "preset:bm_drift", query, "--sigma", "0.5")
        assert code == 2
        assert json.loads(out)["field"] == "xi"

    @pytest.mark.parametrize(
        "args,code,field",
        [
            (("fluct", "pr", "--tau", "0", "--xi", "nan"), "validation", "xi"),
            (("fluct", "pr", "--tau", "nan", "--xi", "0"), "validation", "tau"),
            (("factor", "--xi1", "nan", "--xi2", "1"), "DomainError", ""),
            (("factor", "--xi1", "1", "--xi2", "2", "--tau", "nan"), "validation", "tau"),
        ],
        ids=["pr-xi", "pr-tau", "factor-xi1", "factor-tau"],
    )
    def test_nan_argument_is_an_input_error(self, capsys, args, code, field):
        command, *rest = args
        exit_code, out = run_cli(capsys, command, "preset:bm_drift", *rest)
        assert exit_code == 2
        doc = json.loads(out)
        assert set(doc) == {"code", "message", "field"}
        assert (doc["code"], doc["field"]) == (code, field)

    @pytest.mark.parametrize(
        "args,code,field",
        [
            (("factor", "--xi1", "inf", "--xi2", "1"), "DomainError", ""),
            (("factor", "--xi1", "1", "--xi2", "inf", "--method", "spine"), "DomainError", ""),
            (("factor", "--xi1", "inf", "--xi2", "1", "--method", "phi"), "DomainError", ""),
            (("factor", "--product", "--xi1", "nan", "--xi2", "1"), "DomainError", ""),
            (("factor", "--product", "--xi1", "1", "--xi2", "inf", "--method", "spine"), "DomainError", ""),
            (("fluct", "pr", "--tau", "inf", "--xi", "1"), "validation", "tau"),
            (("fluct", "sup-laplace", "--xi", "inf"), "validation", "xi"),
            (("fluct", "kappa-ratio", "--xi", "1", "--tau1", "inf", "--tau2", "1"), "DomainError", ""),
            (("factor", "--xi1", "1", "--xi2", "2", "--tau", "inf"), "validation", "tau"),
            (("fluct", "sup-tail", "--sigma", "inf"), "validation", "sigma"),
            (("fluct", "sup-tail", "--sigma", "0.5", "--x", "inf"), "DomainError", ""),
            (("mc", "--sigma", "inf", "--n", "10"), "validation", "sigma"),
        ],
        ids=["factor-xi1", "factor-spine-xi2", "factor-phi-xi1", "product-xi1", "product-spine-xi2",
             "pr-tau", "sup-laplace-xi", "kappa-tau1", "factor-tau", "sup-tail-sigma", "sup-tail-x",
             "mc-sigma"],
    )
    def test_infinite_argument_is_a_quiet_input_error(self, capsys, args, code, field):
        command, *rest = args
        exit_code = main([command, "preset:bm_drift", *rest])
        captured = capsys.readouterr()
        assert exit_code == 2 and captured.err == ""
        doc = json.loads(captured.out)
        assert (doc["code"], doc["field"]) == (code, field)

    @pytest.mark.parametrize(
        "args,field",
        [
            (("--joint", "1"), "joint"),
            (("--joint", "a,b"), "joint"),
            (("--joint", "nan,1"), "xi"),
            (("--joint", "1,-2"), "tau"),
            (("--laplace", "nan"), "xi"),
            (("--tail", "nan"), "x"),
            (("--seed", "-1"), "seed"),
        ],
        ids=["joint-one", "joint-text", "joint-nan", "joint-negative", "laplace-nan", "tail-nan",
             "seed-negative"],
    )
    def test_mc_query_validation(self, capsys, args, field):
        code, out = run_cli(capsys, "mc", "preset:bm_drift", "--sigma", "0.5", "--n", "10", *args)
        assert code == 2
        doc = json.loads(out)
        assert (doc["code"], doc["field"]) == ("validation", field)

    def test_verify_rejects_an_option_the_suite_lacks(self, capsys):
        code, out = run_cli(capsys, "verify", "preset:bm_drift", "--suite", "spine", "--tol", "1e-3")
        assert code == 2
        doc = json.loads(out)
        assert (doc["code"], doc["field"]) == ("validation", "tol")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_verify_rejects_a_tolerance_out_of_range(self, capsys, tol):
        """A tolerance that is not finite and >= 0 is an input error naming tol, not a failed check."""
        code, out = run_cli(capsys, "verify", "preset:bm_drift", "--suite", "core", "--tol", tol)
        assert code == 2
        doc = json.loads(out)
        assert set(doc) == {"code", "message", "field"}
        assert (doc["code"], doc["field"]) == ("validation", "tol")

    def test_verify_admits_a_zero_tolerance(self, capsys):
        code, out = run_cli(capsys, "verify", "preset:bm_drift", "--suite", "core", "--tol", "0")
        assert code in (0, 1) and json.loads(out)["n_checks"] > 0

    def test_json_floats_are_shortest_repr(self, capsys):
        """Each float of an artifact is written as repr(float) and reads back to the library's value bitwise."""
        code, out = run_cli(capsys, "eval", "preset:stable_asym", "--xi", "0.3,0.1")
        assert code == 0
        tokens = []
        doc = json.loads(out, parse_float=lambda t: tokens.append(t) or float(t))
        assert len(tokens) == 10 and all(t == repr(float(t)) for t in tokens)  # 6 in the spec
        assert '"re": 0.3,' in out and doc["xi"] == {"re": 0.3, "im": 0.1}
        value = eval_f(SHOWCASE["stable_asym"], 0.3 + 0.1j)
        got = (doc["value"]["re"], doc["value"]["im"])
        assert [v.hex() for v in got] == [value.real.hex(), value.imag.hex()]

    def test_fluct_artifact_has_no_made_up_error(self, capsys, tmp_path):
        spec = tmp_path / "bm.json"
        spec.write_text('{"type": "levy_atomic", "a": 0.5}')
        code, out = run_cli(capsys, "fluct", str(spec), "sup-tail", "--sigma", "0.5", "--x", "1")
        assert code == 0
        assert set(json.loads(out)) == {"query", "value", "method_chain"}

    def test_fluct_kappa_ratio_both_directions(self, capsys, tmp_path):
        spec = tmp_path / "bm.json"
        spec.write_text('{"type": "levy_atomic", "a": 0.5}')
        code, out = run_cli(
            capsys, "fluct", str(spec), "kappa-ratio",
            "--tau", "1", "--xi1", "1", "--xi2", "2",
        )
        assert code == 0
        want = (1.0 + math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-8)
        assert json.loads(out)["method_chain"] == ["kappa_ratio_xi"]
        code, out = run_cli(
            capsys, "fluct", str(spec), "kappa-ratio",
            "--xi", "0", "--tau1", "2", "--tau2", "1",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(2.0), rel=1e-8)
        assert json.loads(out)["method_chain"] == ["kappa_ratio_tau"]

    @pytest.mark.parametrize("xi1,xi2", [("1", "0"), ("0", "1")])
    @pytest.mark.parametrize("name", ["stable_asym", "stable_mixed"])
    def test_fluct_phi_route_at_zero_is_a_domain_error(self, capsys, name, xi1, xi2):
        """phi has inner support there, so the phi-route factor vanishes at xi = 0."""
        code, out = run_cli(
            capsys, "fluct", f"preset:{name}", "kappa-ratio",
            "--tau", "0.5", "--xi1", xi1, "--xi2", xi2, "--method", "phi",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["code"] == "DomainError"
        assert set(doc) == {"code", "message", "field"}

    def test_mc_deterministic_artifact(self, capsys, tmp_path):
        args = (
            "mc",
            "preset:bm_drift",
            "--sigma",
            "0.5",
            "--n",
            "5000",
            "--seed",
            "5",
            "--laplace",
            "1.0",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical artifacts

    def test_mc_dump(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        code, _ = run_cli(
            capsys,
            "mc",
            "preset:bm_drift",
            "--sigma",
            "0.5",
            "--n",
            "100",
            "--seed",
            "1",
            "--dump",
            str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "sup_value,argmax_time,horizon,killed"
        assert len(lines) == 101

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_verify_core_passes(self, capsys, name):
        code, out = run_cli(capsys, "verify", f"preset:{name}", "--suite", "core")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_failures"] == 0
        assert doc["suite"] == "core"

    @pytest.mark.parametrize("name", sorted(SHOWCASE))
    def test_verify_core_limit_zero_catches_a_wrong_limit(self, monkeypatch, name):
        """f(0+) reported 1e-4 off must fail the limit-zero check, and only it."""
        real = verify.f_limits

        def off(spec):
            lim = real(spec)
            return LimitsResult(lim.f_at_zero + 1e-4, lim.f_at_infinity)

        monkeypatch.setattr(verify, "f_limits", off)
        rep = verify.suite_core(SHOWCASE[name])
        assert [c.name for c in rep.failures()] == ["limit-zero"]

    def test_verify_reports_failures(self, capsys, tmp_path):
        # a valid spec checked against an absurd tolerance still writes a report
        code, out = run_cli(
            capsys, "verify", "preset:bm_drift", "--suite", "core", "--tol", "1e-30"
        )
        doc = json.loads(out)
        assert code in (0, 1)
        assert doc["n_checks"] > 0

    def test_unknown_preset(self, capsys):
        code, out = run_cli(capsys, "eval", "preset:nope", "--xi", "1,0")
        assert code == 2
        assert json.loads(out)["field"] == "preset"
