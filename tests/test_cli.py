import argparse
import csv
import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from gaplab import reporting
from gaplab.cli import build_parser, main, _omega_range, _safe_expression
from gaplab.models import (FAMILY_FIELD, G_IDENTITY, MODEL_IDS, GammaExchangeSpec, ModelSpec,
                           RhoSpec, model_from_id)

README = Path(__file__).resolve().parent.parent / "README.md"


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestGapCommands:
    def test_galerkin_kac(self, tmp_path):
        code, doc = run_json(["gap-galerkin", "--model", "kac", "--N", "3",
                              "--degree", "4"], tmp_path)
        assert code == 0
        rec = doc["results"][0]
        assert rec["gap"] == pytest.approx(5 / 12, abs=1e-8)
        assert rec["method"] == "galerkin"
        assert doc["config"]["command"] == "gap-galerkin"
        assert doc["provenance"]["references"]

    # full mode: degrees 3 and 4 split into 8 parity classes, the largest the
    # 6 all-even quartics; symmetric: one block per degree
    @pytest.mark.parametrize("mode,assembly,size,kept,blocks,block_max", [
        ("full", "monomial", 35, 25, 8, 6), ("symmetric", "orbit-representative", 11, 7, 2, 4)])
    def test_galerkin_records_how_it_was_computed(self, tmp_path, mode, assembly,
                                                   size, kept, blocks, block_max):
        code, doc = run_json(["gap-galerkin", "--model", "kac", "--N", "3",
                              "--degree", "4", "--basis-mode", mode], tmp_path)
        assert code == 0
        rec = doc["results"][0]
        assert rec["gap"] == pytest.approx(5 / 12, abs=1e-8)
        assert rec["assembly"] == assembly
        assert rec["basis_size"] == size
        assert rec["kept_dim"] == kept
        assert rec["deflated"] == size - kept
        assert 0.0 <= rec["eig_residual"] < 1e-12
        assert rec["eig_condition"] >= 1.0
        assert (rec["blocks"], rec["block_max"]) == (blocks, block_max)
        out = tmp_path / "gap.csv"
        assert main(["gap-galerkin", "--model", "kac", "--N", "3", "--degree", "4",
                     "--basis-mode", mode, "--format", "csv", "--out", str(out)]) == 0
        assert next(csv.reader(out.open())) == reporting.CSV_COLUMNS

    def test_galerkin_records_its_graph(self, tmp_path):
        args = ["gap-galerkin", "--graph", "lattice", "--d", "2", "--N", "2",
                "--model", "gamma-exchange", "--gamma", "1", "--degree", "2"]
        code, doc = run_json(args, tmp_path)
        assert code == 0
        rec = doc["results"][0]
        assert rec["graph"] == {"kind": "lattice", "d": 2, "N": 2}
        assert "N" not in rec
        out = tmp_path / "gap.csv"
        assert main(args + ["--format", "csv", "--out", str(out)]) == 0
        row = next(csv.DictReader(out.open()))
        assert (row["graph_kind"], row["d"], row["N"]) == ("lattice", "2", "2")
        assert float(row["gap"]) == pytest.approx(rec["gap"])

    def test_galerkin_on_the_default_graph_records_K_N(self, tmp_path):
        code, doc = run_json(["gap-galerkin", "--model", "kac", "--N", "4",
                              "--degree", "4", "--basis-mode", "symmetric"], tmp_path)
        assert code == 0
        assert doc["results"][0]["graph"] == {"kind": "complete", "d": 1, "N": 4}

    def test_galerkin_full_mode_too_large_is_refused(self, capsys):
        # the even parity class of degree 10 on K16 alone holds C(20, 5) = 15,504 monomials
        code = main(["gap-galerkin", "--model", "kac", "--N", "16", "--degree", "10"])
        assert code == 1
        assert "--basis-mode symmetric" in capsys.readouterr().err

    def test_galerkin_lattice_too_large_suggests_no_symmetric_mode(self, capsys):
        # orbit sums are refused off the complete graph, so the refusal must not offer them
        code = main(["gap-galerkin", "--graph", "lattice", "--d", "2", "--N", "5",
                     "--degree", "8"])
        assert code == 1
        err = capsys.readouterr().err
        assert "monomials of degree 8" in err
        assert "symmetric" not in err

    @pytest.mark.parametrize("argv,flag,text", [
        (["gap-galerkin", "--model", "gamma-exchange", "--gamma", "1/0"], "--gamma", "1/0"),
        (["gap-galerkin", "--model", "gamma-exchange", "--gamma", "abc"], "--gamma", "abc"),
        (["bounds", "--lambda3", "1/0", "--lambda2", "1"], "--lambda3", "1/0"),
        (["bounds", "--lambda3", "5/12", "--lambda2", "abc"], "--lambda2", "abc"),
    ])
    def test_malformed_rational_names_its_flag(self, capsys, argv, flag, text):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {flag} '{text}'")

    def test_galerkin_gamma(self, tmp_path):
        code, doc = run_json(["gap-galerkin", "--model", "gamma-exchange",
                              "--N", "4", "--degree", "2", "--gamma", "2"], tmp_path)
        assert code == 0
        assert doc["results"][0]["gap"] == pytest.approx(9 / 20, abs=1e-8)

    def test_exact_sweep_json(self, tmp_path):
        code, doc = run_json(["gap-exact", "--model", "zero-range", "--g", "identity",
                              "--N", "3", "--omega", "1:4"], tmp_path)
        assert code == 0
        assert len(doc["results"]) == 4
        for rec in doc["results"]:
            assert rec["gap"] == pytest.approx(1.0, abs=1e-8)
            assert rec["method"] == "exact"
            assert rec["graph"] == {"kind": "complete", "d": 1, "N": 3}

    def test_exact_records_solver_provenance(self, tmp_path):
        code, doc = run_json(["gap-exact", "--model", "zero-range", "--g", "identity",
                              "--N", "3", "--omega", "2,30"], tmp_path)
        assert code == 0
        small, large = doc["results"]
        assert (small["dim"], small["solver"]) == (6, "dense")
        assert (large["dim"], large["solver"]) == (496, "eigsh")
        for rec in (small, large):
            assert rec["gap"] == pytest.approx(1.0, abs=1e-8)
            assert rec["nnz"] > rec["dim"]
            assert 0.0 <= rec["eig_residual"] < 1e-9

    def test_exact_csv_columns(self, tmp_path):
        out = tmp_path / "gaps.csv"
        code = main(["gap-exact", "--model", "simple-average", "--g", "constant-one",
                     "--N", "3", "--omega", "2", "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["gap"]) == pytest.approx(4 / 9, abs=1e-6)
        header = out.read_text().splitlines()[0]
        assert header == ("model,graph_kind,d,N,omega,gap,kappa,dim,degree,"
                          "sector,eig_residual,eig_condition,method")

    def test_exact_dirac_omega(self, tmp_path):
        code, doc = run_json(["gap-exact", "--model", "zero-range", "--g", "identity",
                              "--N", "3", "--omega", "0"], tmp_path)
        assert code == 0
        assert doc["results"][0]["gap"] == "inf"

    def test_continuous_model_rejected_for_exact(self, tmp_path):
        code = main(["gap-exact", "--model", "kac", "--N", "3", "--omega", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_mc_smoke(self, tmp_path):
        code, doc = run_json(["gap-mc", "--model", "zero-range", "--g", "identity",
                              "--N", "3", "--omega", "3", "--dt", "0.25",
                              "--samples", "2500", "--seed", "3"], tmp_path)
        assert code == 0
        rec = doc["results"][0]
        assert rec["ci"][0] < 1.0 < rec["ci"][1]

    def test_mc_record_counts(self, tmp_path):
        code, doc = run_json(["gap-mc", "--model", "zero-range", "--g", "identity",
                              "--N", "3", "--omega", "3", "--dt", "0.5",
                              "--samples", "600", "--seed", "3"], tmp_path)
        assert code == 0
        rec = doc["results"][0]
        # K3 at omega = 3 has 10 configurations: the jump chain indexes each
        # once and builds its row once
        assert rec["events"] > 0
        assert 0 < rec["chain_states"] == rec["rate_rows"] <= 10
        assert rec["clipped_events"] == 0
        # one evaluation per configuration that a grid point reaches
        assert 0 < rec["observable_evals"] <= rec["chain_states"]
        assert rec["bootstrap_failures"] >= 0
        assert 50 <= rec["block"] <= 600 // 4
        # the point fit's lags: the 16 direct products, or all 401 by FFT
        assert rec["fit_lags"] in (16, 401)
        first, last = rec["fit_window"]
        assert 1 <= first < last < rec["fit_lags"]

    def test_mc_stream_file(self, tmp_path):
        from gaplab.reporting import read_sample_stream
        stream = tmp_path / "run.samples"
        code, doc = run_json(["gap-mc", "--model", "zero-range", "--g", "identity",
                              "--N", "3", "--omega", "3", "--dt", "0.5",
                              "--samples", "600", "--seed", "3",
                              "--stream", str(stream)], tmp_path)
        assert code == 0
        header, times, values = read_sample_stream(stream)
        assert header["fields"] == ["gap-eigenfunction"]
        # one trajectory: the default burn-in of 40 strides, then the 600 samples
        burn_in = 40 * 0.5
        assert len(times) >= 40 + 600
        assert times[0] == pytest.approx(0.5)
        assert times[-1] >= burn_in + 600 * 0.5
        assert values.shape == (len(times), 1)
        # grid points with no event between them repeat the evaluated frame
        rec = doc["results"][0]
        assert 0 < rec["observable_evals"] <= rec["events"] + 1
        assert rec["observable_evals"] < len(times)
        # streaming does not change the estimate
        code, plain = run_json(["gap-mc", "--model", "zero-range", "--g", "identity",
                                "--N", "3", "--omega", "3", "--dt", "0.5",
                                "--samples", "600", "--seed", "3"], tmp_path, "plain.json")
        assert code == 0
        assert plain["results"] == doc["results"]

    def test_mc_simple_average_with_shape_is_refused(self, capsys):
        code = main(["gap-mc", "--model", "simple-average", "--gamma", "2",
                     "--observable", "sum-squares"])
        assert code == 1
        assert "gamma-exchange" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, hint", [
        (["gap-exact", "--model", "zero-range", "--gamma", "2"], "gamma-exchange"),
        (["gap-exact", "--model", "zero-range", "--rho", "uniform"], "kac-rho"),
        (["gap-mc", "--model", "kac", "--gamma", "7", "--observable", "site-0"],
         "gamma-exchange"),
        (["gap-galerkin", "--model", "kac", "--gamma", "2"], "gamma-exchange"),
        (["gap-galerkin", "--model", "gamma-exchange", "--rho", "uniform"], "kac-rho"),
        (["two-site", "--model", "kac", "--rho", "uniform"], "kac-rho"),
        (["two-site", "--model", "zero-range", "--gamma", "2"], "gamma-exchange"),
        (["gap-mc", "--model", "kac", "--g", "identity", "--observable", "site-0",
          "--samples", "300", "--N", "3", "--omega", "1"], "zero-range and simple-average"),
        (["gap-exact", "--model", "gamma-exchange", "--g", "identity"],
         "zero-range and simple-average"),
        (["two-site", "--model", "kac-rho", "--g", "constant-one"],
         "zero-range and simple-average"),
    ])
    def test_parameter_the_model_does_not_read_is_refused(self, argv, hint, capsys):
        assert main(argv) == 1
        assert hint in capsys.readouterr().err

    @pytest.mark.parametrize("model_id, field", [
        (mid, field) for mid, family in MODEL_IDS.items()
        for field in ("rho", "exchange", "g") if FAMILY_FIELD[family] != field])
    def test_unread_parameter_refusal_is_the_model_types(self, model_id, field, capsys):
        family = MODEL_IDS[model_id]
        own = FAMILY_FIELD[family]
        fields = {field: {"rho": RhoSpec.uniform(), "exchange": GammaExchangeSpec(2),
                          "g": G_IDENTITY}[field]}
        if own is not None:
            fields[own] = getattr(model_from_id(model_id), own)
        with pytest.raises(ValueError) as refusal:
            ModelSpec(family, **fields)
        flag = {"rho": ["--rho", "uniform"], "exchange": ["--gamma", "2"],
                "g": ["--g", "identity"]}[field]
        assert main(["gap-exact", "--model", model_id, *flag]) == 1
        assert capsys.readouterr().err == f"error: {refusal.value}\n"

    @pytest.mark.parametrize("text, totals", [
        ("3", [3]), ("1:4", [1, 2, 3, 4]), ("3:3", [3]), ("1,3,5", [1, 3, 5]),
    ])
    def test_range_of_totals(self, text, totals):
        assert _omega_range(text) == totals

    def test_empty_range_of_totals_is_refused(self, capsys):
        assert main(["gap-exact", "--model", "zero-range", "--omega", "5:3"]) == 1
        assert "5 > 3" in capsys.readouterr().err

    def test_mc_refuses_a_range_of_totals(self, capsys):
        assert main(["gap-mc", "--model", "zero-range", "--omega", "1:3"]) == 1
        assert "one total" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1:3:5", "1:", "a:b", "1,,3", "x"])
    def test_malformed_totals_name_the_accepted_forms(self, text, capsys):
        assert main(["gap-exact", "--model", "zero-range", "--omega", text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed --omega")
        assert "N" in err and "LO:HI" in err and "A,B,C" in err

    @pytest.mark.parametrize("argv, hint", [
        (["--dt", "0"], "finite and > 0"),
        (["--dt", "-1"], "finite and > 0"),
        (["--dt", "nan"], "finite and > 0"),
        (["--samples", "0"], "at least one sample"),
    ])
    def test_mc_refuses_an_empty_sampling_grid(self, argv, hint, capsys):
        assert main(["gap-mc", "--model", "zero-range", "--N", "3", "--omega", "3",
                     *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and hint in err

    @pytest.mark.parametrize("argv", [
        ["graph"],
        ["gap-exact", "--model", "zero-range", "--omega", "2"],
        ["audit", "--omega", "2"],
    ])
    def test_complete_graph_refuses_a_dimension(self, argv, capsys):
        # K_N has no dimension; a --d other than 1 must not be dropped silently
        assert main([*argv, "--graph", "complete", "--d", "3", "--N", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid dimension: d = 3" in err


class TestOtherCommands:
    def test_graph(self, tmp_path):
        code, doc = run_json(["graph", "--graph", "lattice", "--d", "2", "--N", "3"],
                             tmp_path)
        assert code == 0
        assert doc["results"][0]["n_edges"] == 12

    def test_states(self, tmp_path):
        code, doc = run_json(["states", "--N", "4", "--omega", "3", "--g", "identity"],
                             tmp_path)
        assert code == 0
        assert doc["results"][0]["dim"] == 20

    def test_two_site(self, tmp_path):
        code, doc = run_json(["two-site", "--model", "zero-range", "--g", "identity",
                              "--omega", "1:5"], tmp_path)
        assert code == 0
        summary = doc["results"][-1]
        assert summary["gap"] == pytest.approx(1.0, abs=1e-8)
        assert summary["kappa"] == pytest.approx(5.0, abs=1e-8)
        assert summary["solver"] == "tridiagonal"
        assert 0.0 <= summary["max_residual"] < 1e-12
        code, doc = run_json(["two-site", "--model", "simple-average", "--g", "identity",
                              "--omega", "0:3"], tmp_path, name="average.json")
        assert code == 0
        summary = doc["results"][-1]
        assert summary["gap"] == summary["kappa"] == 0.5
        assert summary["solver"] == "projection" and summary["max_residual"] == 0.0

    def test_two_site_refuses_a_continuous_family(self, capsys):
        # no total is solved: without the refusal it would read as a simple average
        assert main(["two-site", "--model", "gamma-exchange", "--gamma", "2",
                     "--omega", "1:3"]) == 1
        assert "gamma-exchange" in capsys.readouterr().err

    def test_two_site_rotation_modes(self, tmp_path):
        code, doc = run_json(["two-site", "--model", "kac-rho",
                              "--rho", "density:(1 + cos(theta)) / (2 * pi)"],
                             tmp_path)
        assert code == 0
        summary = doc["results"][-1]
        assert summary["mode"] == "extremes over 1..64"
        assert "higher modes not examined" in summary["method"]
        assert summary["gap"] == pytest.approx(0.25, abs=1e-8)
        assert summary["kappa"] == pytest.approx(0.5, abs=1e-8)

    def test_kernel(self, tmp_path):
        code, doc = run_json(["kernel", "--g", "identity", "--n-max", "40"], tmp_path)
        assert code == 0
        extremes = doc["results"][-1]
        assert extremes["max"] == pytest.approx(0.25, abs=1e-4)
        assert extremes["min"] == pytest.approx(-0.5, abs=1e-9)

    def test_bounds(self, tmp_path):
        code, doc = run_json(["bounds", "--lambda3", "0.444444444",
                              "--lambda2", "1", "--d", "1"], tmp_path)
        assert code == 0
        steps = doc["results"][0]["steps"]
        assert [s["rule"] for s in steps] == ["Thm 1.1", "Thm 1.2", "Thm 2.2"]
        assert doc["results"][0]["interval"][1] == "inf"

    def test_bounds_exact_fraction_input(self, tmp_path):
        code, doc = run_json(["bounds", "--lambda3", "5/12", "--lambda2", "1/2",
                              "--d", "1"], tmp_path)
        assert code == 0
        assert doc["results"][0]["steps"][1]["value"]["fraction"] == "1/384"

    def test_bounds_refusal_is_computation_error(self, tmp_path, capsys):
        code = main(["bounds", "--lambda3", "1/3", "--lambda2", "1", "--d", "1"])
        assert code == 1
        assert "1/3" in capsys.readouterr().err

    def test_audit(self, tmp_path):
        code, doc = run_json(["audit", "--graph", "lattice", "--d", "1", "--N", "3",
                              "--g", "constant-one", "--omega", "2",
                              "--functions", "25"], tmp_path)
        assert code == 0
        assert doc["results"][0]["violations"] == 0

    def test_audit_of_no_functions_is_refused(self, capsys):
        assert main(["audit", "--functions", "0"]) == 1
        assert "at least one test function" in capsys.readouterr().err

    def test_audit_of_one_state_is_refused(self, capsys):
        # every centered function on one state is 0, so nothing would be checked
        assert main(["audit", "--N", "3", "--omega", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 2 states" in err

    def test_verify_subset(self, capsys):
        code = main(["verify-all", "--only", "caputo-identity", "certificate-chain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "caputo-identity" in out and "certificate-chain" in out
        assert "2/2 checks passed" in out

    def test_verify_unknown_check_is_refused(self, capsys):
        assert main(["verify-all", "--only", "kac-exact-gapp"]) == 1
        captured = capsys.readouterr()
        assert "checks passed" not in captured.out
        assert "unknown check(s) kac-exact-gapp" in captured.err
        assert "kac-exact-gap, caputo-identity" in captured.err


class TestUsageErrors:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["gap-exact", "--bogus"])
        assert exc.value.code == 2

    def test_missing_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_model_value_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gap-exact", "--model", "nope"])
        assert exc.value.code == 2


class TestDensityExpressions:
    def test_safe_expression(self):
        f = _safe_expression("(1 + cos(theta)) / (2 * pi)")
        assert f(0.0) == pytest.approx(1 / math.pi)
        assert f(math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_attribute_access(self):
        with pytest.raises(ValueError):
            _safe_expression("().__class__")

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            _safe_expression("open('x')")

    def test_rho_density_cli(self, tmp_path):
        code, doc = run_json(["gap-galerkin", "--model", "kac-rho", "--N", "3",
                              "--degree", "4",
                              "--rho", "density:(1 + cos(theta)) / (2 * pi)"], tmp_path)
        assert code == 0
        # a legitimate sector value: positive, and at most the uniform walk's gap
        assert 0 < doc["results"][0]["gap"] <= 5 / 12 + 1e-9


class TestInvalidDensities:
    """A --rho that is not a probability density exits 1 naming the failed checks."""

    @pytest.mark.parametrize("density, failed", [
        ("cos(theta)", "density nonnegative"),
        ("2", "normalization rho_hat(0) = 1"),
    ])
    @pytest.mark.parametrize("command", [
        ["two-site", "--model", "kac-rho"],
        ["gap-mc", "--model", "kac-rho", "--N", "3", "--observable", "site-0",
         "--samples", "300"],
    ])
    def test_invalid_density_is_refused(self, command, density, failed, capsys):
        assert main(command + ["--rho", f"density:{density}"]) == 1
        err = capsys.readouterr().err
        assert "not a probability density" in err
        assert f"[FAIL] {failed}" in err

    @pytest.mark.parametrize("command", [
        ["two-site", "--model", "kac-rho"],
        ["gap-mc", "--model", "kac-rho", "--N", "3", "--observable", "site-0",
         "--samples", "300"],
    ])
    def test_invalid_fourier_data_is_refused(self, command, tmp_path, capsys):
        f = tmp_path / "rho.coeffs"
        f.write_text("1.0\n1.5\n")
        assert main(command + ["--rho", f"fourier:{f}"]) == 1
        assert "[FAIL] coefficient bound" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [
        ["two-site", "--model", "kac-rho"],
        ["gap-galerkin", "--model", "kac-rho", "--N", "3"],
        ["gap-mc", "--model", "kac-rho", "--N", "3", "--observable", "site-0",
         "--samples", "300"],
    ])
    def test_signed_fourier_series_is_refused(self, command, tmp_path, capsys):
        # every |rho_hat(n)| <= 1, but the series dips to -0.16: not a density
        f = tmp_path / "rho.coeffs"
        f.write_text("1.0\n0.9\n0.9\n" + "0.0\n" * 6)
        assert main(command + ["--rho", f"fourier:{f}"]) == 1
        assert "[FAIL] density nonnegative" in capsys.readouterr().err


class TestRhoFormsAcrossEngines:
    """Every --rho form runs through every rotation engine, and the Fourier and
    density cardioids give the same gaps."""

    COMMANDS = {
        "two-site": ["two-site", "--model", "kac-rho"],
        "gap-galerkin": ["gap-galerkin", "--model", "kac-rho", "--N", "3"],
        "gap-mc": ["gap-mc", "--model", "kac-rho", "--N", "3", "--observable", "site-0",
                   "--samples", "300"],
    }

    @staticmethod
    def _rho(form, tmp_path):
        if form == "fourier":
            # the cardioid as the whole series: no zero padding
            f = tmp_path / "cardioid.coeffs"
            f.write_text("1\n0.5\n")
            return f"fourier:{f}"
        return {"uniform": "uniform", "density": "density:(1 + cos(theta)) / (2 * pi)"}[form]

    def _run(self, command, form, tmp_path):
        out = tmp_path / f"{command}-{form}.json"
        args = self.COMMANDS[command] + ["--rho", self._rho(form, tmp_path), "--out", str(out)]
        assert main(args) == 0
        return json.loads(out.read_text())["results"]

    @pytest.mark.parametrize("form", ["uniform", "fourier", "density"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_form_runs(self, command, form, tmp_path):
        assert self._run(command, form, tmp_path)

    def test_fourier_and_density_cardioids_agree(self, tmp_path):
        two_site = {form: self._run("two-site", form, tmp_path)[-1]
                    for form in ("fourier", "density")}
        sector = {form: self._run("gap-galerkin", form, tmp_path)[0]["gap"]
                  for form in ("fourier", "density")}
        assert two_site["fourier"]["gap"] == pytest.approx(0.25, abs=1e-12)
        assert two_site["fourier"]["kappa"] == 0.5
        assert "exact" in two_site["fourier"]["method"]
        assert sector["fourier"] == pytest.approx(1 / 3, abs=1e-12)
        assert abs(two_site["fourier"]["gap"] - two_site["density"]["gap"]) < 1e-12
        assert abs(sector["fourier"] - sector["density"]) < 1e-12


class TestFileInputs:
    def test_rho_fourier_file(self, tmp_path):
        f = tmp_path / "rho.coeffs"
        f.write_text("# rho_hat(n), n = 0, 1, ...\n1.0\n\n0.5\n0.0\n0.0\n0.0\n")
        code, doc = run_json(["two-site", "--model", "kac-rho",
                              "--rho", f"fourier:{f}"], tmp_path)
        assert code == 0
        # order 4 data: modes 1..5, the last one standing for every higher mode
        summary = doc["results"][-1]
        assert summary["mode"] == "extremes over 1..5"
        assert summary["gap"] == pytest.approx(0.25, abs=1e-12)
        assert summary["kappa"] == 0.5

    def test_g_table_file(self, tmp_path):
        f = tmp_path / "g.table"
        f.write_text("# k, g(k)\n1,1.0\n2,2.0\n3,3.0\n4,4.0\n5,5.0\n")
        code, doc = run_json(["gap-exact", "--model", "zero-range",
                              "--g", f"table:{f}", "--N", "3", "--omega", "2"],
                             tmp_path)
        assert code == 0
        assert doc["results"][0]["gap"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("row", ["0.2 0.1 0.7", "0.2, 0.1, 0.7", "half"])
    def test_rho_fourier_malformed_line_is_refused(self, row, tmp_path, capsys):
        # three numbers once read as 0.2 + 0.1i, dropping the third
        f = tmp_path / "rho.coeffs"
        f.write_text(f"# rho_hat(n)\n1\n{row}\n")
        assert main(["two-site", "--model", "kac-rho", "--rho", f"fourier:{f}"]) == 1
        err = capsys.readouterr().err
        assert f"{f}, line 3: expected 're' or 're, im', got {row!r}" in err

    @pytest.mark.parametrize("row", ["2,2,3", "2", "two,2.0"])
    def test_g_table_malformed_line_is_refused(self, row, tmp_path, capsys):
        f = tmp_path / "g.table"
        f.write_text(f"1,1.0\n{row}\n")
        code = main(["gap-exact", "--model", "zero-range", "--g", f"table:{f}",
                     "--N", "3", "--omega", "2"])
        assert code == 1
        assert f"{f}, line 2: expected 'k,g(k)', got {row!r}" in capsys.readouterr().err

    def test_g_table_repeated_k_is_refused(self, tmp_path, capsys):
        f = tmp_path / "g.table"
        f.write_text("1,1.0\n1,5.0\n2,2.0\n")
        code = main(["gap-exact", "--model", "zero-range", "--g", f"table:{f}",
                     "--N", "3", "--omega", "2"])
        assert code == 1
        assert f"rate table '{f}' lists k = 1 twice" in capsys.readouterr().err

    def test_g_table_non_finite_rate_is_refused(self, tmp_path, capsys):
        f = tmp_path / "g.table"
        f.write_text("1,inf\n2,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gap-exact", "--model", "zero-range", "--g", f"table:{f}",
                         "--N", "3", "--omega", "2"])
        assert code == 1
        assert f"rate function '{f}': g(1) = inf must be finite and positive" in \
            capsys.readouterr().err

    def test_g_table_out_of_range_is_computation_error(self, tmp_path, capsys):
        f = tmp_path / "g.table"
        f.write_text("1,1.0\n")
        code = main(["gap-exact", "--model", "zero-range", "--g", f"table:{f}",
                     "--N", "3", "--omega", "4"])
        assert code == 1
        assert "no entry" in capsys.readouterr().err


def _readme_commands():
    """argv of every `gaplab` line in README's fenced blocks.

    The full and `--fast` battery lines are left out: the acceptance tests
    run those criteria already.
    """
    commands, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("gaplab "):
            argv = shlex.split(line, comments=True)[1:]
            if argv[0] != "verify-all" or "--only" in argv:
                commands.append(argv)
    return commands


README_COMMANDS = _readme_commands()


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {argv[0] for argv in README_COMMANDS} == set(sub.choices)

    @pytest.mark.parametrize("argv", README_COMMANDS,
                             ids=[f"{i:02d}-{argv[0]}" for i, argv in enumerate(README_COMMANDS)])
    def test_example_runs(self, argv, tmp_path, capsys):
        if argv[0] != "verify-all":   # the battery prints its lines and writes no file
            argv = [*argv, "--out", str(tmp_path / "out")]
        assert main(argv) == 0, capsys.readouterr().err
