import hashlib
import json
import shutil
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest

from probrep import __version__, serialize, validate_density
from probrep.cli import COMMANDS, build_parser, main
from probrep.correlations import direction_povm, singlet
from probrep.operators import projector_povm


GOLDEN = Path(__file__).parent / "golden"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load(path):
    return json.loads(path.read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_plus_state(path):
    plus = validate_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    path.write_text(serialize.dumps(serialize.operator_payload(plus)))


def write_mixed_state(path):
    path.write_text(
        serialize.dumps(serialize.operator_payload(validate_density(np.eye(2) / 2)))
    )


def write_x_povm(path):
    path.write_text(serialize.dumps(serialize.povm_payload(direction_povm(0.0))))


class TestSicSearch:
    def test_qubit_search_certifies(self, workdir):
        code = main(
            ["sic-search", "--dim", "2", "--restarts", "10", "--seed", "1",
             "--out", "fid.json"]
        )
        assert code == 0
        data = load(workdir / "fid.json")
        assert abs(data["frame_potential"] - 1.0 / 3.0) < 1e-9
        assert data["max_sic_deviation"] < 1e-8
        assert data["certified"] is True
        assert data["seed"] == 1 and data["restarts_used"] == 10
        assert data["restart_index"] == 0  # the first restart certifies; no other runs

    def test_dimension_out_of_range(self, workdir):
        assert main(["sic-search", "--dim", "1", "--out", "f.json"]) == 1
        assert main(["sic-search", "--dim", "9", "--out", "f.json"]) == 1

    def test_dimension_three(self, workdir):
        code = main(
            ["sic-search", "--dim", "3", "--restarts", "20", "--seed", "5",
             "--out", "fid3.json"]
        )
        assert code == 0

    def test_unattainable_tolerance_exits_two(self, workdir):
        # Each of the five d = 3 restarts ends 2.7e-13 to 8.1e-13 from a SIC. (A
        # tolerance is never unattainable at d = 2, where restart seed 13 ends
        # exactly on one.)
        code = main(
            ["sic-search", "--dim", "3", "--restarts", "5", "--seed", "1",
             "--tol", "1e-16", "--out", "fid.json"]
        )
        assert code == 2
        data = load(workdir / "fid.json")
        assert data["certified"] is False
        assert data["restarts_used"] == 5 and data["restart_index"] in range(5)

    def test_bad_flag_exits_one(self, workdir):
        assert main(["sic-search", "--dim", "two", "--out", "f.json"]) == 1

    def test_rerun_reproduces_bytes(self, workdir):
        main(["sic-search", "--dim", "2", "--restarts", "5", "--seed", "3",
              "--out", "fid.json"])
        before = sha(workdir / "fid.json")
        assert main(["rerun", "fid.json"]) == 0
        assert sha(workdir / "fid.json") == before

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_exits_one_before_searching(self, workdir, monkeypatch, tol):
        import probrep.sic

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(probrep.sic, "sic_search", no_search)
        assert main(["sic-search", "--dim", "2", f"--tol={tol}", "--out", "fid.json"]) == 1
        assert not (workdir / "fid.json").exists()

    def test_search_failure_exits_two(self, workdir, monkeypatch):
        from probrep.errors import NoConvergence
        import probrep.sic

        def explode(*args, **kwargs):
            raise NoConvergence("no restart converged")

        monkeypatch.setattr(probrep.sic, "sic_search", explode)
        assert main(["sic-search", "--dim", "2", "--out", "fid.json"]) == 2


class TestBornCheck:
    def test_passes_and_reports(self, workdir):
        code = main(
            ["born-check", "--dim", "2", "--trials", "25", "--seed", "7",
             "--reference", "sic", "--report", "bc.json"]
        )
        assert code == 0
        data = load(workdir / "bc.json")
        assert data["max_deviation"] < 1e-9
        assert data["passed"] is True
        assert data["max_sic_vs_general"] < 1e-10

    def test_random_reference(self, workdir, capsys):
        code = main(
            ["born-check", "--dim", "3", "--trials", "10", "--seed", "2",
             "--reference", "random", "--report", "bc.json"]
        )
        assert code == 0
        assert load(workdir / "bc.json")["max_sic_vs_general"] is None
        # seed 364's reference is past the condition cap: refused, and no report
        (workdir / "bc.json").unlink()
        assert main(["born-check", "--dim", "3", "--reference", "random", "--seed", "364",
                     "--report", "bc.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ill-conditioned" in err
        assert list(workdir.iterdir()) == []

    def test_sic_flag_in_reference_file_is_recomputed(self, workdir):
        from probrep import random_reference, sic_reference

        def sic_vs_general(ref, claim):
            payload = serialize.reference_payload(ref)
            payload["sic_certified"] = claim
            (workdir / "ref.json").write_text(serialize.dumps(payload))
            code = main(["born-check", "--dim", "3", "--trials", "5", "--seed", "2",
                         "--reference", "ref.json", "--report", "bc.json"])
            assert code == 0
            return load(workdir / "bc.json")["max_sic_vs_general"]

        # a false claim would apply the SIC rule to random elements
        assert sic_vs_general(random_reference(3, 1), True) is None
        assert sic_vs_general(sic_reference(3), False) < 1e-10

    def test_reference_file_of_another_dim_exits_one(self, workdir, capsys):
        code = main(["born-check", "--dim", "5", "--trials", "10",
                     "--reference", str(GOLDEN / "inputs" / "reference_random_d2.json"),
                     "--report", "bc.json"])
        assert code == 1
        assert capsys.readouterr().err == "error: --dim 5 != reference dim 2\n"
        assert not (workdir / "bc.json").exists()

    def test_sic_search_result_is_a_reference(self, workdir):
        assert main(["sic-search", "--dim", "3", "--restarts", "20", "--seed", "1",
                     "--out", "f.json"]) == 0
        code = main(["born-check", "--dim", "3", "--trials", "20", "--reference", "f.json",
                     "--report", "bc.json"])
        assert code == 0
        data = load(workdir / "bc.json")
        assert data["passed"] is True
        assert data["max_sic_vs_general"] < 1e-10  # the orbit certifies as a SIC

    def test_ket_that_is_no_sic_fiducial_is_a_general_reference(self, workdir):
        from probrep import random_pure_state

        (workdir / "k.json").write_text(
            serialize.dumps(serialize.ket_payload(random_pure_state(3, 1))))
        code = main(["born-check", "--dim", "3", "--trials", "20", "--reference", "k.json",
                     "--report", "bc.json"])
        assert code == 0
        data = load(workdir / "bc.json")
        assert data["passed"] is True and data["max_sic_vs_general"] is None

    def test_basis_vector_file_exits_one(self, workdir, capsys):
        from probrep import make_ket

        (workdir / "k.json").write_text(
            serialize.dumps(serialize.ket_payload(make_ket([1.0, 0.0, 0.0]))))
        code = main(["born-check", "--dim", "3", "--reference", "k.json", "--report", "bc.json"])
        assert code == 1
        assert "rank-3 operator subspace, need 9" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["k.json"]

    def test_thousand_trial_sweep(self, workdir):
        code = main(
            ["born-check", "--dim", "3", "--trials", "1000",
             "--reference", "sic", "--report", "bc.json"]
        )
        assert code == 0

    def test_byte_identical_across_runs(self, workdir):
        args = ["born-check", "--dim", "2", "--trials", "1", "--seed", "7",
                "--report", "bc.json"]
        main(args)
        first = sha(workdir / "bc.json")
        main(args)
        assert sha(workdir / "bc.json") == first

    def test_dim_above_cap(self, workdir):
        assert main(["born-check", "--dim", "9", "--report", "bc.json"]) == 1

    def test_tolerance_failure_exits_two(self, workdir, monkeypatch):
        # drive the numerical-failure branch with an unreachable tolerance
        import probrep.cli as cli_mod

        monkeypatch.setattr(cli_mod, "BORN_CHECK_TOL", 1e-18)
        code = main(["born-check", "--dim", "2", "--trials", "5",
                     "--report", "bc.json"])
        assert code == 2
        assert load(workdir / "bc.json")["passed"] is False


class TestClassicalGap:
    def test_flagship_gap(self, workdir):
        write_plus_state(workdir / "state.json")
        write_x_povm(workdir / "povm.json")
        code = main(
            ["classical-gap", "--state", "state.json", "--povm", "povm.json",
             "--reference", "sic", "--report", "gap.json"]
        )
        assert code == 0
        data = load(workdir / "gap.json")
        assert abs(data["gap"] - 1.0 / 3.0) < 1e-9
        np.testing.assert_allclose(data["q_quantum"], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(data["q_classical"], [2 / 3, 1 / 3], atol=1e-9)

    def test_maximally_mixed_state(self, workdir):
        write_mixed_state(workdir / "state.json")
        write_x_povm(workdir / "povm.json")
        main(["classical-gap", "--state", "state.json", "--povm", "povm.json",
              "--report", "gap.json"])
        assert load(workdir / "gap.json")["gap"] < 1e-10

    def test_reference_from_file(self, workdir):
        from probrep import random_reference

        write_plus_state(workdir / "state.json")
        write_x_povm(workdir / "povm.json")
        ref = random_reference(2, seed=1)
        (workdir / "ref.json").write_text(
            serialize.dumps(serialize.reference_payload(ref))
        )
        code = main(
            ["classical-gap", "--state", "state.json", "--povm", "povm.json",
             "--reference", "ref.json", "--report", "gap.json"]
        )
        assert code == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_registry_fiducial_file_is_the_sic_reference(self, workdir, d):
        from probrep import known_fiducial, random_density, random_povm

        (workdir / "state.json").write_text(
            serialize.dumps(serialize.operator_payload(random_density(d, 2, seed=d))))
        (workdir / "povm.json").write_text(
            serialize.dumps(serialize.povm_payload(random_povm(d, 3, seed=d))))
        (workdir / "k.json").write_text(serialize.dumps(serialize.ket_payload(known_fiducial(d))))
        reports = []
        for reference in ("sic", "k.json"):
            assert main(["classical-gap", "--state", "state.json", "--povm", "povm.json",
                         "--reference", reference, "--report", "gap.json"]) == 0
            data = load(workdir / "gap.json")
            reports.append({key: data[key] for key in ("gap", "q_quantum", "q_classical")})
        assert reports[0] == reports[1]

    def test_random_reference_is_seed_zero(self, workdir):
        from probrep import classicality_gap, random_reference

        write_plus_state(workdir / "state.json")
        write_x_povm(workdir / "povm.json")
        code = main(["classical-gap", "--state", "state.json", "--povm", "povm.json",
                     "--reference", "random", "--report", "gap.json"])
        assert code == 0
        rho = serialize.density_from_payload(load(workdir / "state.json"))
        gap = classicality_gap(random_reference(2, 0), rho, direction_povm(0.0))
        assert load(workdir / "gap.json")["gap"] == gap

    def test_malformed_json_diagnostic(self, workdir, capsys):
        (workdir / "bad.json").write_text('{"dim": 2,, "matrix": []}')
        write_x_povm(workdir / "povm.json")
        code = main(["classical-gap", "--state", "bad.json", "--povm", "povm.json",
                     "--report", "gap.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed input file bad.json: malformed JSON: ")
        assert "line" in err

    def test_missing_field_diagnostic(self, workdir, capsys):
        (workdir / "bad.json").write_text('{"dim": 2}')
        write_x_povm(workdir / "povm.json")
        code = main(["classical-gap", "--state", "bad.json", "--povm", "povm.json",
                     "--report", "gap.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: malformed input file bad.json: missing field 'matrix'\n"
        # steer names the --basis-b file that lacks its field, and not the --basis-a one
        assert main(["steer", "--basis-a", "povm.json", "--basis-b", "bad.json",
                     "--report", "s.json"]) == 1
        err = capsys.readouterr().err
        assert err == "error: malformed input file bad.json: missing field 'elements'\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["bad.json", "povm.json"]


class TestBell:
    def test_singlet_chsh(self, workdir):
        code = main(["bell", "--state", "singlet", "--chsh"])
        assert code == 0
        data = load(workdir / "bell_summary.json")
        assert abs(data["chsh"] - 2.828427) < 1e-6
        assert data["no_signalling"] < 1e-10

    def test_phi_plus_zz_perfect_correlations(self, workdir):
        code = main(
            ["bell", "--state", "phi+", "--plane", "zx", "--angles", "0:0",
             "--table-csv", "t.csv", "--report", "r.json"]
        )
        assert code == 0
        block = load(workdir / "r.json")["table"]["blocks"][0]["p"]
        np.testing.assert_allclose(block, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        lines = (workdir / "t.csv").read_text().strip().split("\n")
        assert lines[1] == "a,b,x,y,p"

    def test_simulate_within_binomial_bounds(self, workdir):
        code = main(["bell", "--state", "singlet", "--chsh",
                     "--simulate", "20000", "--seed", "4"])
        assert code == 0
        data = load(workdir / "bell_summary.json")
        emp = data["simulate"]["empirical_chsh"]
        assert abs(emp - 2 * np.sqrt(2)) < 0.1

    def test_bad_angles(self, workdir):
        assert main(["bell", "--angles", "90,0,45,135"]) == 1

    # 1e308 degrees is finite and overflows in radians; a numpy warning would reach stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("first", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_angle_exits_one(self, workdir, capsys, first):
        assert main(["bell", f"--angles={first},0:45,135", "--chsh"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert list(workdir.iterdir()) == []

    def test_negative_first_angle_needs_the_equals_form(self, workdir, capsys):
        # argparse reads "-45,0:45,135" after a space as a flag, not as the value
        assert main(["bell", "--angles=-45,0:45,135"]) == 0
        assert load(workdir / "bell_summary.json")["table"]["settings_a"] == ["-45", "0"]
        (workdir / "bell_summary.json").unlink()
        capsys.readouterr()
        assert main(["bell", "--angles", "-45,0:45,135"]) == 1
        assert "error: argument --angles: expected one argument" in capsys.readouterr().err
        assert not (workdir / "bell_summary.json").exists()

    def test_refused_simulation_writes_no_file(self, workdir, capsys):
        argv = ["bell", "--simulate", "10", "--seed", "-1", "--counts-csv", "counts.csv"]
        assert main(argv) == 1
        assert "seed" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--report", "missing/b.json"],
        ["--simulate", "10", "--counts-csv", "missing/n.csv"],
        ["--table-csv", "out"],  # a directory
    ], ids=["report-dir-missing", "counts-dir-missing", "table-is-a-directory"])
    def test_unwritable_output_writes_no_file(self, workdir, capsys, argv):
        (workdir / "out").mkdir()
        assert main(["bell", "--chsh", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ".tmp" not in err  # names the output path
        assert [p.name for p in workdir.iterdir()] == ["out"]
        assert list((workdir / "out").iterdir()) == []

    @pytest.mark.parametrize("argv,named", [
        (["--table-csv", "same.out", "--report", "same.out"], "same.out and same.out"),
        (["--table-csv", "same.out", "--report", "./same.out"], "same.out and ./same.out"),
        (["--simulate", "10", "--table-csv", "same.out", "--counts-csv", "same.out"],
         "same.out and same.out"),
        (["--simulate", "10", "--counts-csv", "./bell_table.csv"],
         "bell_table.csv and ./bell_table.csv"),
    ], ids=["table-is-report", "table-is-dot-report", "counts-is-table", "counts-is-default-table"])
    def test_two_outputs_at_one_path_exit_one(self, workdir, capsys, argv, named):
        # renamed in turn, the later output would replace the earlier one
        (workdir / "same.out").write_text("earlier bytes\n")
        assert main(["bell", "--chsh", *argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: outputs {named} are one file; give each its own path\n"
        assert [p.name for p in workdir.iterdir()] == ["same.out"]
        assert (workdir / "same.out").read_text() == "earlier bytes\n"

    @pytest.mark.parametrize("angles", ["0,0.0:45,135", "45,45:0,90", "45,45.0:0,90"])
    def test_repeated_setting_label_exits_one(self, workdir, capsys, angles):
        # an angle typed twice has one label, and its two blocks would merge
        argv = ["bell", "--angles", angles, "--chsh", "--simulate", "100", "--seed", "1"]
        assert main(argv) == 1
        assert "setting labels must be distinct" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("angles", ["45,45.0000001:0,90", "0.5,0.50000001:0,90",
                                        "0.1234567,0.1234568:45,135"])
    def test_distinct_angles_get_distinct_labels(self, workdir, angles):
        # in %g (6 significant digits) each pair of angles has one label
        assert main(["bell", "--angles", angles, "--chsh", "--simulate", "100"]) == 0
        table = load(workdir / "bell_summary.json")["table"]
        # each labeled as typed
        assert [table["settings_a"], table["settings_b"]] == [
            side.split(",") for side in angles.split(":")]
        assert len(set(table["settings_a"])) == 2

    def test_rerun_reproduces_csv_and_json(self, workdir):
        main(["bell", "--state", "singlet", "--chsh", "--simulate", "500",
              "--counts-csv", "counts.csv"])
        hashes = {f: sha(workdir / f)
                  for f in ("bell_table.csv", "bell_summary.json", "counts.csv")}
        assert main(["rerun", "bell_summary.json"]) == 0
        for f, before in hashes.items():
            assert sha(workdir / f) == before

    def test_counts_csv_without_simulate_exits_one(self, workdir, capsys):
        # with no counts to write, the flag was once ignored in silence
        assert main(["bell", "--chsh", "--counts-csv", "counts.csv"]) == 1
        assert capsys.readouterr().err == "error: --counts-csv needs --simulate\n"
        assert list(workdir.iterdir()) == []
        assert main(["bell", "--chsh"]) == 0
        summary = load(workdir / "bell_summary.json")
        summary["manifest"]["params"]["counts_csv"] = "counts.csv"
        (workdir / "bell_summary.json").write_text(serialize.dumps(summary))
        before = {p.name: sha(p) for p in workdir.iterdir()}
        capsys.readouterr()
        assert main(["rerun", "bell_summary.json"]) == 1
        assert capsys.readouterr().err == "error: --counts-csv needs --simulate\n"
        assert {p.name: sha(p) for p in workdir.iterdir()} == before

    def test_counts_csv_shape(self, workdir):
        main(["bell", "--state", "singlet", "--simulate", "100",
              "--counts-csv", "counts.csv"])
        lines = (workdir / "counts.csv").read_text().strip().split("\n")
        assert lines[1] == "a,b,x,y,count"
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[2:])
        assert total == 400


class TestSteer:
    def test_phi_plus_z_x(self, workdir):
        code = main(["steer", "--state", "phi+", "--basis-a", "z",
                     "--basis-b", "x", "--report", "s.json"])
        assert code == 0
        data = load(workdir / "s.json")
        assert data["no_steering"] is False
        assert abs(data["overlap"] - 0.5) < 1e-10
        assert data["marginal_deviation"] < 1e-12

    def test_product_state_flags_no_steering(self, workdir):
        amp = np.kron([1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2))
        from probrep import make_ket

        (workdir / "prod.json").write_text(
            serialize.dumps(serialize.ket_payload(make_ket(amp)))
        )
        code = main(["steer", "--state", "prod.json", "--report", "s.json"])
        assert code == 0
        assert load(workdir / "s.json")["no_steering"] is True

    def test_non_bipartite_exits_one(self, workdir):
        from probrep import random_pure_state

        (workdir / "small.json").write_text(
            serialize.dumps(serialize.ket_payload(random_pure_state(2, 0)))
        )
        assert main(["steer", "--state", "small.json", "--report", "s.json"]) == 1

    def test_basis_from_file(self, workdir):
        (workdir / "basis.json").write_text(
            serialize.dumps(serialize.povm_payload(projector_povm(np.eye(2))))
        )
        code = main(["steer", "--state", "phi+", "--basis-a", "basis.json",
                     "--basis-b", "x", "--report", "s.json"])
        assert code == 0


class TestSimulate:
    def test_fair_coin_deterministic(self, workdir):
        (workdir / "probs.json").write_text(serialize.dumps({"values": [0.5, 0.5]}))
        args = ["simulate", "--probs", "probs.json", "--n", "100", "--seed", "0",
                "--out", "c.json"]
        assert main(args) == 0
        first = load(workdir / "c.json")["counts"]
        main(args)
        assert load(workdir / "c.json")["counts"] == first
        assert sum(first) == 100

    def test_certain_distribution(self, workdir):
        (workdir / "probs.json").write_text(serialize.dumps({"values": [1.0, 0.0]}))
        main(["simulate", "--probs", "probs.json", "--n", "100", "--seed", "3",
              "--out", "c.json"])
        assert load(workdir / "c.json")["counts"] == [100, 0]

    def test_invalid_distribution(self, workdir):
        (workdir / "probs.json").write_text(serialize.dumps({"values": [0.7, 0.6]}))
        assert main(["simulate", "--probs", "probs.json", "--n", "10",
                     "--out", "c.json"]) == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--probs", "probs.json", "--n", "10", "--seed", "-1", "--out", "c.json"],
        ["bell", "--simulate", "10", "--seed", "-1"],
        ["born-check", "--dim", "2", "--seed", "-1"],
        ["born-check", "--dim", "2", "--seed", "-1", "--reference", "random"],
    ])
    def test_negative_seed_exits_one_naming_it(self, workdir, capsys, argv):
        (workdir / "probs.json").write_text(serialize.dumps({"values": [0.5, 0.5]}))
        assert main(argv) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert list(workdir.iterdir()) == [workdir / "probs.json"]

    def test_count_beyond_int64_exits_one(self, workdir, capsys):
        # numpy's multinomial would raise OverflowError at 2**63
        (workdir / "probs.json").write_text(serialize.dumps({"values": [0.5, 0.5]}))
        assert main(["simulate", "--probs", "probs.json", "--n", str(2**63),
                     "--out", "c.json"]) == 1
        assert capsys.readouterr().err.startswith("error: n must be an integer in 1..2**63-1")
        assert main(["simulate", "--probs", "probs.json", "--n", str(2**63 - 1),
                     "--out", "c.json"]) == 0
        assert sum(load(workdir / "c.json")["counts"]) == 2**63 - 1


class TestInterval:
    def test_thirty_seventy_window(self, workdir, capsys):
        assert main(["interval", "100", "0.5", "30", "70"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[-1])
        assert abs(value - 0.999968) < 1e-6

    def test_writes_report(self, workdir):
        assert main(["interval", "100", "0.5", "30", "70", "--out", "i.json"]) == 0
        assert abs(load(workdir / "i.json")["probability"] - 0.999968) < 1e-6

    def test_invalid_window(self, workdir):
        assert main(["interval", "100", "0.5", "80", "70"]) == 1

    @pytest.mark.parametrize("window", [
        ["9223372036854775807", "0.5", "0", "9223372036854775807"],
        ["9223372036854775807", "0.3", "1000", "4000000000000000000"],
    ], ids=["half-full", "wide-tail"])
    def test_refuses_a_window_past_the_block_cap_within_a_second(self, workdir, window):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "probrep.cli", "interval", *window],
                              capture_output=True, text=True)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the window holds ")
        assert proc.stderr.count("\n") == 1  # one line: no warning
        assert list(workdir.iterdir()) == []


class TestRerun:
    def test_rejects_file_without_manifest(self, workdir):
        (workdir / "x.json").write_text('{"values": [1, 2]}')
        assert main(["rerun", "x.json"]) == 1

    def test_missing_file(self, workdir):
        assert main(["rerun", "nope.json"]) == 1

    @pytest.mark.parametrize("version", ["0.2.0", None])
    def test_refuses_file_of_another_version(self, workdir, capsys, version):
        name = "born_random_d3.json"
        data = load(GOLDEN / name)
        if version is None:
            del data["manifest"]["artifact_version"]
        else:
            data["manifest"]["artifact_version"] = version
        (workdir / name).write_text(serialize.dumps(data))
        before = sha(workdir / name)
        assert main(["rerun", name]) == 1
        assert sha(workdir / name) == before
        assert [p.name for p in workdir.iterdir()] == [name]
        err = capsys.readouterr().err
        assert __version__ in err
        assert f"artifact_version {version or 'none'}" in err


    def test_refuses_a_file_away_from_where_it_was_written(self, workdir, monkeypatch, capsys):
        # its manifest names i.json, which from here is ./i.json and not sub/i.json
        (workdir / "sub").mkdir()
        monkeypatch.chdir(workdir / "sub")
        assert main(["interval", "10", "0.5", "2", "5", "--out", "i.json"]) == 0
        monkeypatch.chdir(workdir)
        before = sha(workdir / "sub" / "i.json")
        capsys.readouterr()
        assert main(["rerun", "sub/i.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sub/i.json is not i.json, the output its manifest names")
        assert "rerun from the directory the file was written in" in err
        assert sorted(p.name for p in workdir.iterdir()) == ["sub"]
        assert sha(workdir / "sub" / "i.json") == before
        # an unrelated file of that name here keeps its bytes
        (workdir / "i.json").write_text('{"unrelated": true}\n')
        assert main(["rerun", "sub/i.json"]) == 1
        assert (workdir / "i.json").read_text() == '{"unrelated": true}\n'
        assert sha(workdir / "sub" / "i.json") == before
        monkeypatch.chdir(workdir / "sub")
        assert main(["rerun", "i.json"]) == 0
        assert sha(workdir / "sub" / "i.json") == before

    def test_refuses_a_file_that_is_a_bare_manifest(self, workdir, capsys):
        manifest = {"command": "interval", "artifact_version": __version__,
                    "params": {"n": 10, "p": 0.5, "lo": 2, "hi": 5, "out": "m.json"}}
        (workdir / "m.json").write_text(serialize.dumps(manifest))
        before = sha(workdir / "m.json")
        assert main(["rerun", "m.json"]) == 1
        assert capsys.readouterr().err == "error: m.json does not embed a manifest\n"
        assert sha(workdir / "m.json") == before

    @pytest.mark.parametrize("command", ["frobnicate", "rerun"])
    def test_refuses_a_manifest_of_an_unknown_command(self, workdir, capsys, command):
        # rerun writes no result, so no manifest can be one of its own
        data = {"manifest": {"command": command, "artifact_version": __version__,
                             "params": {"file": "m.json"}}}
        (workdir / "m.json").write_text(serialize.dumps(data))
        before = sha(workdir / "m.json")
        assert main(["rerun", "m.json"]) == 1
        assert capsys.readouterr().err == f"error: unknown command {command!r} in manifest\n"
        assert [p.name for p in workdir.iterdir()] == ["m.json"]
        assert sha(workdir / "m.json") == before


DELETED = object()  # the param is taken out of the manifest

RESULT_OF = {"simulate": ["simulate", "--probs", "probs.json", "--n", "10", "--out", "c.json"],
             "bell": ["bell", "--table-csv", "t.csv", "--report", "c.json"]}


# A manifest's params must be exactly its command's flags, each value one that its flag gives.
@pytest.mark.parametrize("command,field,value", [
    ("simulate", "out", 5), ("simulate", "probs", 7), ("simulate", "n", "10"),
    ("simulate", "bins", 3), ("simulate", "n", None), ("bell", "seed", DELETED),
    ("bell", "report", DELETED), ("bell", "plane", "yz"),
], ids=["out-5", "probs-7", "n-10", "bins-3", "n-null", "bell-seed-deleted",
        "bell-report-deleted", "bell-plane-yz"])
def test_rerun_refuses_a_param_its_flag_never_gives(workdir, capsys, command, field, value):
    shutil.copy(GOLDEN / "inputs" / "probs.json", workdir)
    assert main(RESULT_OF[command]) == 0
    data = load(workdir / "c.json")
    if value is DELETED:
        del data["manifest"]["params"][field]
    else:
        data["manifest"]["params"][field] = value
    (workdir / "c.json").write_text(serialize.dumps(data))
    before = {p.name: sha(p) for p in workdir.iterdir()}
    capsys.readouterr()
    assert main(["rerun", "c.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed input file c.json: ") and repr(field) in err
    assert {p.name: sha(p) for p in workdir.iterdir()} == before


# Every flag that reads a JSON file, with valid files for the flags it is given alongside.
FILE_FLAGS = {
    "simulate --probs": ["simulate", "--probs", "{}", "--n", "10"],
    "classical-gap --state": ["classical-gap", "--state", "{}", "--povm", "x.json"],
    "classical-gap --povm": ["classical-gap", "--state", "plus.json", "--povm", "{}"],
    "classical-gap --reference": ["classical-gap", "--state", "plus.json", "--povm", "x.json",
                                  "--reference", "{}"],
    "born-check --reference": ["born-check", "--dim", "2", "--reference", "{}"],
    "bell --state": ["bell", "--state", "{}"],
    "steer --state": ["steer", "--state", "{}"],
    "steer --basis-a": ["steer", "--basis-a", "{}"],
    "steer --basis-b": ["steer", "--basis-b", "{}"],
    "rerun": ["rerun", "{}"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_gives_the_flags_and_defaults_of_the_command_table(command):
    # each required flag given a value of its type; every other flag takes its default
    text = {int: "2", float: "0.5", str: "x.json"}
    argv = [command]
    for flag in COMMANDS[command].flags:
        if flag.required:
            argv += [text[flag.type]] if flag.name[0] != "-" else [flag.name, text[flag.type]]
    want = {flag.dest: flag.type(text[flag.type]) if flag.required else flag.default
            for flag in COMMANDS[command].flags}
    got = vars(build_parser().parse_args(argv))
    assert got.pop("command") == command
    assert got == want
    assert {key: type(value) for key, value in got.items()} == {
        key: type(value) for key, value in want.items()}


def test_file_flags_are_the_input_flags_of_the_command_table():
    table = {command + (f" {flag.name}" if flag.name.startswith("-") else "")
             for command, spec in COMMANDS.items() for flag in spec.flags if flag.role == "input"}
    assert set(FILE_FLAGS) == table


@pytest.mark.parametrize("shape", ["[1, 2]", '"text"', "5"], ids=["list", "string", "int"])
@pytest.mark.parametrize("flag", FILE_FLAGS)
def test_input_file_of_the_wrong_json_shape_exits_one(workdir, capsys, flag, shape):
    write_plus_state(workdir / "plus.json")
    write_x_povm(workdir / "x.json")
    (workdir / "bad.json").write_text(shape)
    argv = ["bad.json" if arg == "{}" else arg for arg in FILE_FLAGS[flag]]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: malformed input file bad.json: ")


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--probs", "in.json", "--n", "10", "--out", "in.json"], "--probs"),
    (["classical-gap", "--state", "in.json", "--povm", "x.json", "--report", "in.json"],
     "--state"),
    (["steer", "--basis-b", "in.json", "--report", "./in.json"], "--basis-b"),
    (["bell", "--state", "in.json", "--table-csv", "in.json"], "--state"),
], ids=["simulate-out-is-probs", "gap-report-is-state", "steer-report-is-basis",
        "bell-table-is-state"])
def test_an_output_over_an_input_exits_one(workdir, capsys, argv, flag):
    # the run would replace its input with its result, which then could not be rerun
    inputs = {"simulate": {"values": [0.5, 0.5]},
              "classical-gap": serialize.operator_payload(validate_density(np.eye(2) / 2)),
              "steer": serialize.povm_payload(direction_povm(0.0)),
              "bell": serialize.ket_payload(singlet())}
    (workdir / "in.json").write_text(serialize.dumps(inputs[argv[0]]))
    write_x_povm(workdir / "x.json")
    before = {p.name: sha(p) for p in workdir.iterdir()}
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {flag} in.json is also an output of this "
                                       f"command; give the output another path\n")
    assert {p.name: sha(p) for p in workdir.iterdir()} == before


NESTED_KET = [[[0.7071067811865476, 0], [0, 0]], [[0, 0], [0.7071067811865476, 0]]]
# POVM elements of different shapes: a 2x2 and a 3x2 matrix of pairs
MIXED_SHAPE_POVM = {"dim": 2, "elements": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                                           [[[0, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]]}


@pytest.mark.parametrize("argv,payload", [
    (["steer", "--basis-a", "bad.json"], {"dim": 2, "elements": 5}),
    (["simulate", "--probs", "bad.json", "--n", "10"], {"values": {"p": 1.0}}),
    (["rerun", "bad.json"], {"manifest": {"command": "simulate", "params": [1]}}),
    (["rerun", "bad.json"], {"manifest": {"command": ["simulate"], "params": {}}}),
    # a bool or a numeric string is not a number, though numpy would read one as such
    (["simulate", "--probs", "bad.json", "--n", "5"], {"values": [True, False]}),
    (["simulate", "--probs", "bad.json", "--n", "5"], {"values": ["0.5", "0.5"]}),
    (["simulate", "--probs", "bad.json", "--n", "5"], {"values": [True, 0.5]}),
    (["bell", "--state", "bad.json"], {"dim": 4, "vector": [[False, 0], ["1", 0], [0, 0], [0, 0]]}),
    # an array of the wrong shape is malformed, not flattened: a matrix of pairs is no ket
    # (once read as the dim-4 phi+), and a nested list is no distribution
    (["steer", "--state", "bad.json"], {"dim": 2, "vector": NESTED_KET}),
    (["bell", "--state", "bad.json"], {"dim": 2, "vector": NESTED_KET}),
    (["simulate", "--probs", "bad.json", "--n", "5"], {"values": [[[0.25, 0.25]], [[0.5, 0]]]}),
    # a ragged list is malformed too, whatever numpy makes of it
    (["simulate", "--probs", "bad.json", "--n", "5"], {"values": [[0.5], 0.5]}),
    (["steer", "--state", "bad.json"],
     {"dim": 2, "vector": [[0.7071067811865476, 0], 0.7071067811865476]}),
    # elements of different shapes do not stack, and a triple is no [re, im] pair
    (["classical-gap", "--state", "plus.json", "--povm", "bad.json"], MIXED_SHAPE_POVM),
    (["born-check", "--dim", "2", "--reference", "bad.json"], MIXED_SHAPE_POVM),
    (["steer", "--state", "bad.json"],
     {"dim": 2, "vector": [[0.7071067811865476, 0, 0], [0.7071067811865476, 0, 0]]}),
    # a reference file with "vector" is read as a ket, as strictly as a state
    (["born-check", "--dim", "2", "--reference", "bad.json"],
     {"dim": 2, "vector": [[1, 0], [False, 0]]}),
    (["born-check", "--dim", "2", "--reference", "bad.json"], {"dim": 2, "vector": NESTED_KET}),
    (["classical-gap", "--state", "plus.json", "--povm", "x.json", "--reference", "bad.json"],
     {"dim": 2, "vector": [[1, 0], [False, 0]]}),
    (["classical-gap", "--state", "plus.json", "--povm", "x.json", "--reference", "bad.json"],
     {"dim": 2, "vector": NESTED_KET}),
    # a missing field is named with the file that lacks it, not the other file-fed flag's
    (["steer", "--basis-a", "x.json", "--basis-b", "bad.json"],
     serialize.operator_payload(validate_density(np.eye(2) / 2))),
    # a "dim" field that disagrees with its data
    (["steer", "--basis-a", "bad.json"],
     {"dim": 3, "elements": serialize.povm_payload(direction_povm(0.0))["elements"]}),
    (["steer", "--state", "bad.json"],
     {"dim": 2, "vector": serialize.ket_payload(singlet())["vector"]}),
    # json.dumps writes NaN and Infinity literals, which are not RFC 8259 JSON
    (["simulate", "--probs", "bad.json", "--n", "5"], {"values": [float("nan"), 1.0]}),
    (["born-check", "--dim", "2", "--reference", "bad.json"],
     {"dim": 2, "vector": [[float("inf"), float("-inf")], [0, 0]]}),
])
def test_input_field_of_the_wrong_type_exits_one(workdir, capsys, argv, payload):
    write_plus_state(workdir / "plus.json")
    write_x_povm(workdir / "x.json")
    (workdir / "bad.json").write_text(json.dumps(payload))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: malformed input file bad.json: ")
    assert sorted(p.name for p in workdir.iterdir()) == ["bad.json", "plus.json", "x.json"]


@pytest.mark.parametrize("argv,text", [
    (["simulate", "--probs", "bad.json", "--n", "5"], "[" * 100_000 + "]" * 100_000),
    (["steer", "--state", "bad.json"], '{"dim": 1e400, "vector": [[1, 0], [0, 0]]}'),
    (["interval", "99999999999999999999999", "0.5", "0", "5"], None),
    (["simulate", "--probs", "bad.json", "--n", "5"], '{"values": [1%s, 0]}' % ("0" * 400)),
    (["simulate", "--probs", "bad.json", "--n", "5"], '{"values": [1e308, 1e308]}'),
], ids=["probs-nested-100000-deep", "state-dim-1e400", "interval-n-beyond-int64",
        "probs-integer-beyond-float", "probs-sum-beyond-float"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would reach stderr
def test_overflowing_or_deeply_nested_input_exits_one(workdir, capsys, argv, text):
    if text is not None:
        (workdir / "bad.json").write_text(text)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in workdir.iterdir()] == ([] if text is None else ["bad.json"])


def test_json_results_record_their_environment(workdir):
    assert main(["interval", "10", "0.5", "2", "7", "--out", "i.json"]) == 0
    environment = load(workdir / "i.json")["environment"]  # beside, not inside, the manifest
    assert sorted(environment) == ["blas", "machine", "numpy", "python", "system"]
    assert environment["numpy"] == np.__version__


def test_pyproject_version_is_package_version():
    pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == __version__


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_console_script_exit_codes(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "probrep.cli", "interval", "1", "0.5", "1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.5" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "probrep.cli", "sic-search", "--dim", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    # no restart certifies at this tolerance: the best is written uncertified
    proc = subprocess.run(
        [sys.executable, "-m", "probrep.cli", "sic-search", "--dim", "3", "--restarts", "3",
         "--seed", "1", "--tol", "1e-300", "--out", "f0.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert '"certified": false' in (workdir / "f0.json").read_text()
