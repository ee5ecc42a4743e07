"""Command-line contract: schema round-trips, determinism, exit codes."""

import json
import math
import os

import pytest

from levycm.cli import main
from levycm.rogers import LevyAtomic, compensator_drift, validate_spec
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
            ("pr", ("--tau", "0", "--xi", "1"), ["kappa_ratio_xi"]),
            ("pr", ("--tau", "1.5", "--xi", "0"), ["kappa_ratio_tau"]),
            ("pr", ("--tau", "1.5", "--xi", "1"), ["kappa_ratio_tau", "kappa_ratio_xi"]),
            ("pr", ("--tau", "0", "--xi", "0"), []),
            ("sup-laplace", ("--xi", "1"), ["kappa_ratio_xi"]),
            ("sup-laplace", ("--xi", "0"), []),
        ],
    )
    def test_fluct_chain_lists_computed_ratios(self, capsys, tmp_path, query, args, chain):
        spec = tmp_path / "bm.json"
        spec.write_text('{"type": "levy_atomic", "a": 0.5}')
        code, out = run_cli(capsys, "fluct", str(spec), query, "--sigma", "0.5", *args)
        assert code == 0
        assert json.loads(out)["method_chain"] == chain

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
        code, out = run_cli(
            capsys, "fluct", str(spec), "kappa-ratio",
            "--xi", "0", "--tau1", "2", "--tau2", "1",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(2.0), rel=1e-8)

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

    def test_verify_core_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "preset:bm_drift", "--suite", "core")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_failures"] == 0
        assert doc["suite"] == "core"

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
