"""Command-line interface: subcommands, exit codes, deterministic output."""

import gc
import json
import math
import re
import struct
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import run_python
from qsnet import ScenarioConfig, SensorNetwork, SensorSpec, cli, hilbert, scenarios
from qsnet.cli import main
from qsnet.exceptions import DimensionLimitError, FormatError, LayoutError
from qsnet.hilbert import SIGMA_X, SIGMA_Z, matrix_to_json, vector_to_json
from qsnet.network import network_to_json
from qsnet.reporting import Report, dumps, read_json, write_csv


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.fixture
def single_qubit_net_file(tmp_path):
    net = SensorNetwork((SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0])),))
    path = tmp_path / "net.json"
    _write(path, network_to_json(net))
    return path


class TestAudit:
    def test_prop1_passes_and_is_byte_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["audit", "prop1", "--trials", "60", "--seed", "3", "--out", str(out1)]) == 0
        assert main(["audit", "prop1", "--trials", "60", "--seed", "3", "--out", str(out2)]) == 0
        r1 = (out1 / "audit_prop1.json").read_bytes()
        r2 = (out2 / "audit_prop1.json").read_bytes()
        assert r1 == r2
        doc = json.loads(r1)
        assert doc["passed"] is True
        assert doc["max_violation"] <= doc["tol"]

    def test_t1_small_run(self, tmp_path):
        code = main(["audit", "t1", "--trials", "5", "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "audit_t1.json").read_text())
        assert doc["name"] == "separable_surrogate"
        assert len(doc["records"]) == 5

    def test_t2_small_run(self, tmp_path):
        code = main(["audit", "t2", "--trials", "3", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0

    def test_violation_exit_code(self, tmp_path):
        # An absurd tolerance cannot be met by finite-precision arithmetic.
        code = main(
            ["audit", "t1", "--trials", "3", "--seed", "42", "--tol", "1e-18", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_csv_format(self, tmp_path):
        code = main(
            ["audit", "prop1", "--trials", "20", "--seed", "3", "--format", "csv", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "audit_prop1.csv").read_text().splitlines()
        assert lines[0].startswith("name,seed,trials,tol,max_violation")
        assert lines[1].split(",")[-1] == "true"

    def test_manifest_written(self, tmp_path):
        main(["audit", "prop1", "--trials", "10", "--seed", "3", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "audit_prop1_manifest.json").read_text())
        assert manifest["tool"] == "qsnet"
        assert manifest["seed"] == 3
        assert manifest["outputs"]

    def test_unknown_kind_is_config_error(self, tmp_path):
        assert main(["audit", "t9", "--out", str(tmp_path)]) == 2

    def test_config_option_is_refused(self, tmp_path, capsys):
        assert main(["audit", "t1", "--config", str(tmp_path / "x.json"), "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


class TestScenario:
    def test_gradient_csv_row(self, tmp_path, capsys):
        code = main(["scenario", "gradient", "--N", "4", "--format", "csv", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "scenario_gradient.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["ratio"]) == pytest.approx(2.0, abs=1e-9)
        assert "ratio=2" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [14, 16])
    def test_gradient_past_eight_qubits_per_site(self, tmp_path, n):
        # Each site holds n/2 qubits in the (n/2 + 1)-dimensional symmetric sector.
        assert main(["scenario", "gradient", "--N", str(n), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "scenario_gradient.json").read_text())
        assert doc["passed"] is True
        assert doc["ratio"] == pytest.approx(2.0, abs=1e-9)

    def test_gradient_odd_budget_is_config_error(self, tmp_path):
        assert main(["scenario", "gradient", "--N", "3", "--out", str(tmp_path)]) == 2

    def test_optical_zero_cutoff_names_the_field(self, tmp_path, capsys):
        # A one-level mode has a zero generator: no trial could pass the
        # conditioning guard, so the cutoff is refused as configuration.
        assert main(["scenario", "optical", "--cutoff", "0", "--out", str(tmp_path)]) == 2
        assert "error: mode_cutoff must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "scenario_optical.json").exists()

    def test_optical_zero_budget_names_the_field(self, tmp_path, capsys):
        # No probe can be allocated zero particles; the budget is refused
        # as configuration before any probe is built.
        assert main(["scenario", "optical", "--N", "0", "--out", str(tmp_path)]) == 2
        assert "error: n_particles must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "scenario_optical.json").exists()

    def test_optical_budget_below_modes_draws_no_trial(self, tmp_path, monkeypatch, capsys):
        # One particle cannot reach both modes: refused before any
        # surrogate trial is drawn.
        calls = []
        trial = scenarios._surrogate_trial
        monkeypatch.setattr(scenarios, "_surrogate_trial", lambda *a, **k: calls.append(1) or trial(*a, **k))
        assert main(["scenario", "optical", "--N", "1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: budget too small: some weighted sensor would get no particles\n"
        assert calls == []

    def test_optical_over_cap_budget_draws_no_trial(self, tmp_path, monkeypatch, capsys):
        # Three million photons over two modes put 1.5 million on each: the
        # allocation is immediate and its probe is refused at the cap
        # before any surrogate trial is drawn.
        calls = []
        trial = scenarios._surrogate_trial
        monkeypatch.setattr(scenarios, "_surrogate_trial", lambda *a, **k: calls.append(1) or trial(*a, **k))
        assert main(["scenario", "optical", "--N", "3000000", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: dimension 1500001 exceeds the cap 4096 (QSN_MAX_DIM)\n"
        assert calls == []

    def test_optical_over_cap_budget_decomposes_no_sensor(self, tmp_path, monkeypatch, capsys):
        # 4097 photons over two modes: two eigh of about 2049 x 2049 took
        # seconds before the allocation's network met the cap.
        def eigh(a):
            raise AssertionError("decomposed a sensor")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert main(["scenario", "optical", "--N", "4097", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: dimension 4200450 exceeds the cap 4096 (QSN_MAX_DIM)\n"

    def test_optical_json(self, tmp_path):
        code = main(
            ["scenario", "optical", "--trials", "4", "--seed", "11", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "scenario_optical.json").read_text())
        assert doc["per_mode_qfi"] == pytest.approx([9.0, 9.0], abs=1e-9)
        assert doc["vacuum_flagged"] is True


class TestBoundsSweep:
    def test_csv_schema(self, tmp_path):
        code = main(["bounds", "sweep", "--format", "csv", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "bounds_sweep.csv").read_text().splitlines()
        assert lines[0] == "d,N,kappa,mu,sep_bound,ghz_bound,ratio"
        first = lines[1].split(",")
        assert float(first[-1]) == pytest.approx(2.0, abs=1e-9)

    def test_budget_broadcast(self, tmp_path):
        code = main(
            ["bounds", "sweep", "--d", "2", "3", "--N", "6", "--format", "csv", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "bounds_sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_budget_list_pairs_with_sensor_counts(self, tmp_path, capsys):
        code = main(
            ["bounds", "sweep", "--d", "2", "3", "--N", "4", "6", "--format", "csv", "--out", str(tmp_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("d=2 N=4: sep=0.25 ghz=0.125 ratio=2\nd=3 N=6: sep=0.25 ")
        rows = [line.split(",")[:4] for line in (tmp_path / "bounds_sweep.csv").read_text().splitlines()[1:]]
        assert rows == [["2", "4", "1", "1"], ["3", "6", "1", "1"]]

    def test_mismatched_budget_list_is_config_error(self, tmp_path):
        assert main(["bounds", "sweep", "--d", "2", "3", "--N", "4", "5", "6", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_non_positive_sensor_count_names_the_flag(self, tmp_path, capsys, d):
        assert main(["bounds", "sweep", "--d", "2", d, "--out", str(tmp_path)]) == 2
        assert f"error: --d must be an integer >= 1, got {d}" in capsys.readouterr().err
        assert not (tmp_path / "bounds_sweep.json").exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_non_positive_budget_names_the_flag(self, tmp_path, capsys, n):
        assert main(["bounds", "sweep", "--d", "2", "--N", n, "--out", str(tmp_path)]) == 2
        assert f"error: --N must be an integer >= 1, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "bounds_sweep.json").exists()

    @pytest.mark.parametrize("d", ["4097", "100000000000"])
    def test_sensor_count_past_the_cap(self, tmp_path, monkeypatch, capsys, d):
        # Refused before np.ones(d) is built: at 10**11 numpy's allocation
        # failure exited 3.
        monkeypatch.delenv("QSN_MAX_DIM", raising=False)
        assert main(["bounds", "sweep", "--d", "2", d, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --d: {d} sensors exceed the cap 4096 (QSN_MAX_DIM)\n"
        assert not (tmp_path / "bounds_sweep.json").exists()

    def test_sensor_count_under_a_raised_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QSN_MAX_DIM", "5000")
        assert main(["bounds", "sweep", "--d", "4097", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("d=4097 N=4097: ")


@pytest.mark.parametrize(
    "argv",
    [["qfim", "net.json", "state.json"], ["bounds", "sweep"], ["scenario", "gradient"]],
    ids=["qfim", "bounds", "scenario"],
)
def test_repeat_count_is_named_mu(tmp_path, capsys, argv):
    assert main([*argv, "--mu", "0", "--out", str(tmp_path)]) == 2
    assert "error: mu must be an integer >= 1, got 0" in capsys.readouterr().err


class TestQfimCommand:
    def test_pure_state_report(self, tmp_path, single_qubit_net_file):
        state = tmp_path / "plus.json"
        _write(state, vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)))
        code = main(["qfim", str(single_qubit_net_file), str(state), "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "qfim.json").read_text())
        assert doc["qfim"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert doc["singular"] is False
        assert doc["residuals"] == [0]

    def test_density_state_singular_report(self, tmp_path, single_qubit_net_file):
        state = tmp_path / "mixed.json"
        _write(state, matrix_to_json(np.eye(2) / 2))
        code = main(["qfim", str(single_qubit_net_file), str(state), "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "qfim.json").read_text())
        assert doc["singular"] is True
        assert doc["bound"] == "inf"
        assert doc["residuals"] is None

    def test_dimension_mismatch_exit_two(self, tmp_path, single_qubit_net_file):
        state = tmp_path / "wrong.json"
        _write(state, vector_to_json(np.array([1.0, 0.0, 0.0, 0.0])))
        assert main(["qfim", str(single_qubit_net_file), str(state), "--out", str(tmp_path)]) == 2

    def test_malformed_json_exit_two(self, tmp_path, single_qubit_net_file, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"sensors": [oops]}', encoding="utf-8")
        assert main(["qfim", str(bad), str(single_qubit_net_file), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_field_exit_two(self, tmp_path, single_qubit_net_file):
        doc = json.loads(single_qubit_net_file.read_text())
        doc["sensors"][0]["extra"] = 1
        bad = tmp_path / "bad_net.json"
        _write(bad, doc)
        state = tmp_path / "plus.json"
        _write(state, vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)))
        assert main(["qfim", str(bad), str(state), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc", [{}, 3], ids=["object", "number"])
    def test_state_that_is_no_vector_or_matrix_exit_two(self, tmp_path, single_qubit_net_file, capsys, doc):
        state = tmp_path / "state.json"
        _write(state, doc)
        assert main(["qfim", str(single_qubit_net_file), str(state), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {state}: expected a vector or matrix of [re, im] pairs\n"

    def test_missing_file_exit_two(self, tmp_path, single_qubit_net_file):
        assert main(["qfim", str(single_qubit_net_file), str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("mu", ["0", "-3"])
    def test_bad_mu_rejected_before_reading_files(self, tmp_path, single_qubit_net_file, capsys, mu):
        missing = tmp_path / "nope.json"
        argv = ["qfim", str(single_qubit_net_file), str(missing), "--mu", mu, "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "mu must be an integer >= 1" in err
        assert "nope.json" not in err


class TestInputFailureKinds:
    """A failure read from a network or state file keeps its kind, exits 2
    and names the file, then the field where the failure lies inside it (a
    state file holds one field, the state)."""

    CASES = [
        ("network", "wrong_size", LayoutError, "sensors[0]: generator 0 has shape (1, 1), expected (2, 2)"),
        ("network", "over_cap", DimensionLimitError, "network: dimension 2 exceeds the cap 1 (QSN_MAX_DIM)"),
        ("network", "non_numeric", FormatError, "sensors[0].generators[0]: expected numbers in [re, im] pairs, got str"),
        ("state", "wrong_size", LayoutError, "layout of length 1 implies dim 2, the state has dim 4"),
        ("state", "over_cap", DimensionLimitError, "dimension 2 exceeds the cap 1 (QSN_MAX_DIM)"),
        ("state", "non_numeric", FormatError, "state: expected numbers in [re, im] pairs, got str"),
    ]
    IDS = [f"{source}-{failure}" for source, failure, *_ in CASES]

    @staticmethod
    def _argv(tmp_path, monkeypatch, source, failure):
        """``qsnet qfim`` argv on a qubit network and state, with ``failure``
        put into the ``source`` file; returns it and that file's path."""
        net = network_to_json(SensorNetwork((SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0])),)))
        state = vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2))
        if (source, failure) == ("network", "wrong_size"):
            net["sensors"][0]["generators"][0] = [[[1.0, 0.0]]]
        elif (source, failure) == ("network", "over_cap"):
            monkeypatch.setenv("QSN_MAX_DIM", "1")
        elif (source, failure) == ("network", "non_numeric"):
            net["sensors"][0]["generators"][0][0][0] = ["x", 0.0]
        elif (source, failure) == ("state", "wrong_size"):
            state = vector_to_json(np.eye(4)[0])
        elif (source, failure) == ("state", "over_cap"):
            # A state matching a network within the cap is within it too;
            # the cap drops once the network is built.
            build = cli.network_from_json

            def build_then_lower_cap(doc):
                built = build(doc)
                monkeypatch.setenv("QSN_MAX_DIM", "1")
                return built

            monkeypatch.setattr(cli, "network_from_json", build_then_lower_cap)
        else:
            state = [["x", 0.0], [0.0, 0.0]]
        paths = {"network": tmp_path / "net.json", "state": tmp_path / "state.json"}
        _write(paths["network"], net)
        _write(paths["state"], state)
        return ["qfim", str(paths["network"]), str(paths["state"]), "--out", str(tmp_path)], paths[source]

    @pytest.mark.parametrize("source, failure, kind, message", CASES, ids=IDS)
    def test_keeps_its_kind(self, tmp_path, monkeypatch, source, failure, kind, message):
        argv, path = self._argv(tmp_path, monkeypatch, source, failure)
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(kind) as info:
            args.handler(args)
        assert type(info.value) is kind
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("source, failure, kind, message", CASES, ids=IDS)
    def test_exits_two_naming_file_and_field(self, tmp_path, monkeypatch, capsys, source, failure, kind, message):
        argv, path = self._argv(tmp_path, monkeypatch, source, failure)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "qfim.json").exists()

    def test_long_layout_is_not_printed(self, tmp_path, capsys):
        # 5,000 one-dimensional sensors give the state a layout of 5,000
        # entries; the message names its length, not its entries.
        sensor = SensorSpec(1, (np.ones((1, 1)),), np.zeros((1, 1)))
        _write(tmp_path / "net.json", network_to_json(SensorNetwork((sensor,) * 5000)))
        _write(tmp_path / "state.json", vector_to_json(np.array([1.0, 0.0])))
        assert main(["qfim", str(tmp_path / "net.json"), str(tmp_path / "state.json"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'state.json'}: layout of length 5000 implies dim 1, the state has dim 2\n"

    @pytest.mark.parametrize(
        "state, information",
        [
            (vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)), 1.0),
            (matrix_to_json(np.array([[0.5, 0.3], [0.3, 0.5]])), 0.36),
        ],
        ids=["pure", "density"],
    )
    def test_layout_past_numpy_axes_exits_zero(self, tmp_path, state, information):
        # 70 one-dimensional sensors and a qubit: 71 layout entries, more than
        # the 64 axes a numpy array has. The report is the qubit's own.
        one = SensorSpec(1, (), np.zeros((1, 1)))
        qubit = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
        _write(tmp_path / "state.json", state)
        for idle in (0, 70):
            _write(tmp_path / "net.json", network_to_json(SensorNetwork((one,) * idle + (qubit,))))
            argv = ["qfim", str(tmp_path / "net.json"), str(tmp_path / "state.json"), "--out", str(tmp_path / str(idle))]
            assert main(argv) == 0
        report = (tmp_path / "70" / "qfim.json").read_bytes()
        assert report == (tmp_path / "0" / "qfim.json").read_bytes()
        assert json.loads(report)["qfim"] == [[pytest.approx(information, abs=1e-12)]]


class TestLocalGenerators:
    def test_hot_paths_build_no_full_space_generator(self, tmp_path, monkeypatch):
        def forbidden(op, site, layout):
            raise AssertionError("full-space generator built")

        monkeypatch.setattr("qsnet.network.embed_local", forbidden)
        assert main(["audit", "t2", "--trials", "3", "--seed", "7", "--out", str(tmp_path)]) == 0
        rng = np.random.default_rng(9)
        sensor = SensorSpec(2, (SIGMA_Z / 2, SIGMA_X / 2), np.diag([0.0, 1.0]))
        ancilla = SensorSpec(3, (), np.eye(3))
        net = SensorNetwork((sensor, ancilla, sensor))
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = g @ g.conj().T
        _write(tmp_path / "net.json", network_to_json(net))
        _write(tmp_path / "rho.json", matrix_to_json(rho / np.trace(rho).real))
        argv = ["qfim", str(tmp_path / "net.json"), str(tmp_path / "rho.json"), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(json.loads((tmp_path / "qfim.json").read_text())["qfim"]) == 4


class TestFrozenHeap:
    @pytest.mark.parametrize("module,frozen", [("qsnet.cli", True), ("qsnet", False)])
    def test_only_the_cli_import_freezes(self, module, frozen):
        run = run_python("-c", f"import {module}, gc; print(gc.get_freeze_count())")
        assert run.returncode == 0, run.stderr
        assert (int(run.stdout) > 0) is frozen, run.stdout


class TestInternalFault:
    @pytest.mark.parametrize(
        "exc",
        [
            RuntimeError("regeneration cap exceeded: draws 0 to 99 accepted 3 of 10 trials"),
            ValueError("operands could not be broadcast together"),
        ],
        ids=["RuntimeError", "ValueError"],
    )
    def test_uncaught_exception_exits_three(self, tmp_path, monkeypatch, capsys, exc):
        # Only qsnet's rejected-input errors exit 2; a plain ValueError
        # from inside a run is a fault like any other.
        def broken(cfg):
            raise exc

        monkeypatch.setitem(cli._AUDITS, "t1", (broken, *cli._AUDITS["t1"][1:]))
        assert main(["audit", "t1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert str(exc) in err


class TestRunConfig:
    """Run settings layer: kind defaults, then flags."""

    def test_flags_without_seed_keep_audit_default_seed(self, tmp_path):
        code = main(["audit", "prop1", "--tol", "1e-9", "--trials", "20", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "audit_prop1.json").read_text())
        assert doc["seed"] == 3
        assert doc["trials"] == 24  # 20 general trials plus 4 block-diagonal ones

    def test_flags_without_seed_keep_optical_default_seed(self, tmp_path):
        code = main(["scenario", "optical", "--tol", "1e-9", "--trials", "2", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "scenario_optical_manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["trials"] == 2

    def test_flags_win_over_defaults(self, tmp_path):
        code = main(["scenario", "optical", "--cutoff", "2", "--trials", "3", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "scenario_optical.json").read_text())
        assert (doc["cutoff"], doc["surrogate_trials"], doc["modes"]) == (2, 3, 2)
        manifest = json.loads((tmp_path / "scenario_optical_manifest.json").read_text())
        assert manifest["config"] == asdict(ScenarioConfig(seed=11, trials=3, mode_cutoff=2))

    def test_manifest_config_is_resolved_config(self, tmp_path):
        argv = ["audit", "prop1", "--seed", "8", "--tol", "1e-8", "--trials", "10", "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "audit_prop1_manifest.json").read_text())
        assert manifest["config"] == {"seed": 8, "tol": 1e-8, "trials": 10}
        assert manifest["seed"] == 8

    def test_bounds_rejects_tol(self, tmp_path):
        assert main(["bounds", "sweep", "--tol", "1e-6", "--out", str(tmp_path)]) == 2

    def test_qfim_rejects_format(self, tmp_path, single_qubit_net_file):
        state = tmp_path / "plus.json"
        _write(state, vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)))
        argv = ["qfim", str(single_qubit_net_file), str(state), "--out", str(tmp_path)]
        assert main(argv + ["--format", "csv"]) == 2
        assert main(argv + ["--tol", "1e-6"]) == 2

    def test_oversized_network_file_exits_two(self, tmp_path, monkeypatch, capsys):
        sensor = SensorSpec(3, (np.diag([0.0, 1.0, 2.0]),), np.diag([0.0, 1.0, 2.0]))
        net = tmp_path / "net.json"
        _write(net, network_to_json(SensorNetwork((sensor, sensor))))
        state = tmp_path / "state.json"
        _write(state, vector_to_json(np.eye(9)[0]))
        monkeypatch.setenv("QSN_MAX_DIM", "8")
        assert main(["qfim", str(net), str(state), "--out", str(tmp_path)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_bad_dimension_cap_variable_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QSN_MAX_DIM", "0")
        assert main(["scenario", "optical", "--trials", "1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: QSN_MAX_DIM must be a positive integer, got '0'\n"


class TestOutsideNumbers:
    """Non-finite or oversized numbers are configuration errors (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "t1", "--trials", "2", "--tol", "inf"],
            ["scenario", "optical", "--trials", "2", "--tol", "nan"],
            ["bounds", "sweep", "--kappa", "nan"],
            ["bounds", "sweep", "--kappa", "inf"],
        ],
    )
    def test_non_finite_flag(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2

    def test_state_entry_too_large_for_float(self, tmp_path, single_qubit_net_file):
        state = tmp_path / "huge.json"
        _write(state, [[10**400, 0], [0, 0]])
        assert main(["qfim", str(single_qubit_net_file), str(state), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "optical", "--N", str(2**63)],
            ["scenario", "optical", "--N", str(10**20)],
            ["bounds", "sweep", "--mu", str(10**400)],
            ["bounds", "sweep", "--N", str(10**400)],
            ["scenario", "gradient", "--mu", str(10**400)],
        ],
        ids=["optical-N-2**63", "optical-N-1e20", "sweep-mu-1e400", "sweep-N-1e400", "gradient-mu-1e400"],
    )
    def test_integer_past_int64(self, tmp_path, capsys, argv):
        # The optical runs looped about 1e19 times; the others failed with exit 3.
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "must be at most 2**63 - 1" in capsys.readouterr().err

    def test_qfim_mu_past_int64(self, tmp_path, capsys, single_qubit_net_file):
        state = tmp_path / "plus.json"
        _write(state, vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)))
        argv = ["qfim", str(single_qubit_net_file), str(state), "--mu", str(10**400), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "mu must be at most 2**63 - 1" in capsys.readouterr().err

    def test_optical_budget_past_float_counts(self, tmp_path, capsys):
        # Inside int64 but past exact float counts: the allocation loop ran away.
        assert main(["scenario", "optical", "--N", str(2**63 - 1), "--out", str(tmp_path)]) == 2
        assert "past 2**53" in capsys.readouterr().err

    def test_ghz_budget_past_float_counts(self, tmp_path):
        # An odd budget over two equal weights past 2**53 read as constructible.
        argv = ["bounds", "sweep", "--d", "2", "2", "--N", str(2**53), str(2**53 + 1), "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads((tmp_path / "bounds_sweep.json").read_text())["rows"]
        assert [(row["N"], row["ghz_constructible"]) for row in rows] == [(2**53, True), (2**53 + 1, False)]
        # The gradient scenario's GHZ probe is refused there as a configuration error.
        assert main(["scenario", "gradient", "--N", str(2**53 + 2), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("modes", ["7000", "8000", "200000", str(2**63 - 1)])
    def test_optical_modes_past_the_cap(self, tmp_path, capsys, modes):
        # 7000 printed a 4,200-digit dimension; 8000 and 200000 could not
        # print theirs (exit 3), and 2**63 - 1 ran out of memory building
        # its list of counts.
        assert main(["scenario", "optical", "--modes", modes, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: dimension at least 16384 exceeds the cap 4096 (QSN_MAX_DIM)\n"

    def test_network_file_past_the_cap(self, tmp_path, capsys, single_qubit_net_file):
        # 15,000 qubits: the product, 4,516 digits, could not be printed,
        # and the failure read as a FormatError about integer conversion.
        doc = read_json(single_qubit_net_file)
        net = tmp_path / "wide.json"
        _write(net, {**doc, "sensors": doc["sensors"] * 15000})
        state = tmp_path / "plus.json"
        _write(state, vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)))
        assert main(["qfim", str(net), str(state), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {net}: network: dimension at least 8192 exceeds the cap 4096 (QSN_MAX_DIM)\n"

    def test_sweep_sensor_count_numpy_cannot_allocate(self, tmp_path, capsys):
        # np.ones(2**63 - 1) raised numpy's ValueError outside any check: exit 3.
        assert main(["bounds", "sweep", "--d", str(2**63 - 1), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: --d: ")

    @pytest.mark.parametrize("kappa", ["1e-200", "1e200", "1e-160"])
    def test_kappa_whose_bounds_leave_the_float_range(self, tmp_path, capsys, kappa):
        # Exit 3 (division by zero, overflow) or, at 1e-160, "inf" bounds and a "nan" ratio.
        assert main(["bounds", "sweep", "--kappa", kappa, "--out", str(tmp_path)]) == 2
        assert "puts a bound past the float range" in capsys.readouterr().err
        assert not (tmp_path / "bounds_sweep.json").exists()


# Every finite double, drawn by bit pattern, plus the signed zero and the
# extremes of the subnormal, normal and finite ranges.
EDGE_DOUBLES = [-0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308]
finite_doubles = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.integers(min_value=0, max_value=2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite),
)


def _csv_value(text: str):
    """A CSV cell as the JSON scalar it repeats; "inf" and names stay text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


# CSV columns named apart from their JSON keys, per report kind.
_CSV_RENAMED = {"optical": {"trials": "surrogate_trials", "max_violation": "surrogate_max_violation"}}


class TestReportRule:
    """A CSV report repeats entries of its JSON report: each cell is the
    JSON entry of the same key (the same row for a sweep)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "t1", "--trials", "5"],
            ["audit", "t2", "--trials", "3"],
            ["audit", "prop1", "--trials", "20"],
            ["scenario", "gradient"],
            ["scenario", "optical", "--trials", "3"],
            ["bounds", "sweep", "--d", "2", "5", "--N", "4", "10", "--kappa", "0.3", "--mu", "3"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_csv_cells_are_json_entries(self, tmp_path, argv):
        name = f"{argv[0]}_{argv[1]}"
        assert main(argv + ["--out", str(tmp_path / "json")]) == 0
        assert main(argv + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
        doc = json.loads((tmp_path / "json" / f"{name}.json").read_text())
        header, *lines = (tmp_path / "csv" / f"{name}.csv").read_text().splitlines()
        entries = doc["rows"] if argv[0] == "bounds" else [doc]
        assert len(lines) == len(entries)
        renamed = _CSV_RENAMED.get(argv[1], {})
        for line, entry in zip(lines, entries):
            row = dict(zip(header.split(","), map(_csv_value, line.split(","))))
            if argv[1] == "optical":
                # The CSV names the scenario "optical"; its JSON tag is "optical_phases".
                assert (row.pop("scenario"), entry["scenario"]) == ("optical", "optical_phases")
            assert row == {key: entry[renamed.get(key, key)] for key in row}

    def test_rule_on_a_bare_report(self, tmp_path):
        @dataclass(frozen=True)
        class Demo(Report):
            n_particles: int
            value: float
            flags: tuple[bool, ...]

            TAG = {"scenario": "demo"}
            KEYS = {"n_particles": "N"}
            CSV_HEADER = ("scenario", "N", "value")

        report = Demo(3, -math.inf, (True, False))
        assert report.to_jsonable() == {"scenario": "demo", "N": 3, "value": -math.inf, "flags": (True, False)}
        assert dumps(report.to_jsonable()) == '{"N":3,"flags":[true,false],"scenario":"demo","value":"-inf"}\n'
        path = write_csv(tmp_path / "demo.csv", Demo.CSV_HEADER, [report.csv_row(), Demo(0, 0.1, ()).csv_row()])
        assert path.read_text() == "scenario,N,value\ndemo,3,-inf\ndemo,0,0.10000000000000001\n"

    @pytest.mark.parametrize("cell", [None, [1.0], 1j, np.complex128(1.0)], ids=["none", "list", "complex", "np-complex"])
    def test_csv_refuses_what_is_not_a_scalar(self, tmp_path, cell):
        with pytest.raises(TypeError, match="in a CSV cell"):
            write_csv(tmp_path / "bad.csv", ["x"], [[cell]])


class TestJsonInput:
    """Input files are parsed bit-exactly, and strictly as RFC 8259 JSON."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite_doubles, min_size=1, max_size=64))
    @example(EDGE_DOUBLES)
    def test_floats_decode_like_stdlib(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("floats") / "values.json"
        text = json.dumps(values)
        path.write_text(text, encoding="utf-8")
        got = np.array(read_json(path), dtype=float)
        assert got.tobytes() == np.array(json.loads(text), dtype=float).tobytes()

    def test_state_file_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi[1] = 0.0
        psi = psi / np.linalg.norm(psi)
        psi[1] = complex(-0.0, 5e-324)  # adds nothing to the norm
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        _write(tmp_path / "psi.json", vector_to_json(psi))
        _write(tmp_path / "rho.json", matrix_to_json(rho))
        pure = cli._load_state(str(tmp_path / "psi.json"), (2, 2))
        mixed = cli._load_state(str(tmp_path / "rho.json"), (2, 2))
        assert pure.amplitudes.tobytes() == psi.tobytes()
        assert mixed.matrix.tobytes() == rho.tobytes()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("kind", ["state", "network"])
    def test_non_finite_literal(self, tmp_path, single_qubit_net_file, capsys, literal, kind):
        bad = tmp_path / f"{kind}.json"
        if kind == "network":
            bad.write_text(single_qubit_net_file.read_text().replace("0.5", literal, 1), encoding="utf-8")
            argv = ["qfim", str(bad), str(single_qubit_net_file)]
            where = "line 1 column"
        else:
            bad.write_text(f"[[1, 0],\n [{literal}, 0]]", encoding="utf-8")
            argv = ["qfim", str(single_qubit_net_file), str(bad)]
            where = "line 2 column 3"
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"{bad}: invalid JSON at {where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xef\xbb\xbf" + json.dumps(vector_to_json([1.0, 0.0])).encode(), "line 1 column 1"),
            (json.dumps(vector_to_json([1.0, 0.0])).encode() + b"\n[]", "line 2 column 1"),
            (b"", "line 1 column 1"),
        ],
        ids=["bom", "trailing", "empty"],
    )
    def test_malformed_state_file(self, tmp_path, single_qubit_net_file, capsys, data, where):
        bad = tmp_path / "state.json"
        bad.write_bytes(data)
        assert main(["qfim", str(single_qubit_net_file), str(bad), "--out", str(tmp_path)]) == 2
        assert f"{bad}: invalid JSON at {where}: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["network", "state"])
    def test_build_error_names_the_file(self, tmp_path, single_qubit_net_file, capsys, bad):
        # A document that parses but does not build gets the file name in
        # front, as a parse error does.
        net, state = single_qubit_net_file, tmp_path / "state.json"
        if bad == "network":
            doc = json.loads(net.read_text(encoding="utf-8"))
            doc["sensors"][0]["dim"] = 0
            net = tmp_path / "dim0.json"
            _write(net, doc)
            _write(state, vector_to_json([1.0, 0.0]))
            want = f"error: {net}: sensors[0]: sensor dimension must be an integer >= 1, got 0\n"
        else:
            _write(state, [[1, 0], [0]])
            want = f"error: {state}: state: expected a non-empty, non-ragged vector of [re, im] pairs\n"
        assert main(["qfim", str(net), str(state), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == want

    def test_parse_error_names_the_file_once(self, tmp_path, single_qubit_net_file, capsys):
        bad = tmp_path / "state.json"
        bad.write_text("[[1, 0],", encoding="utf-8")
        assert main(["qfim", str(single_qubit_net_file), str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON at line 1 column ")
        assert err.count(str(bad)) == 1


class TestCollectorPause:
    """A state file is parsed and decoded with the cyclic collector paused,
    and the collector's state is restored whatever the load raises."""

    @staticmethod
    def _density_file(path, dim):
        g = np.random.default_rng(6).standard_normal((dim, dim))
        _write(path, matrix_to_json(g @ g.T / np.sum(g**2)))
        return str(path)

    def test_load_runs_no_collection(self, tmp_path):
        # 64 x 64 pairs are about 4200 lists, several times the default
        # threshold of the youngest generation.
        path = self._density_file(tmp_path / "rho.json", 64)
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(hook)
        try:
            cli._load_state(path, (64,))
        finally:
            gc.callbacks.remove(hook)
        assert starts == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["loaded", "malformed", "ragged", "layout"])
    def test_collector_state_restored(self, tmp_path, enabled, outcome):
        path = tmp_path / "state.json"
        layout, raises = (4,), None
        if outcome == "loaded":
            self._density_file(path, 4)
        elif outcome == "malformed":
            path.write_text("[[1, 0],", encoding="utf-8")
            raises = FormatError
        elif outcome == "ragged":
            _write(path, [[1, 0], [0]])
            raises = FormatError
        else:
            self._density_file(path, 4)
            layout, raises = (3,), LayoutError
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if raises is None:
                cli._load_state(str(path), layout)
            else:
                with pytest.raises(raises):
                    cli._load_state(str(path), layout)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestUnreadSettings:
    """Each kind's parser takes exactly the settings the kind reads."""

    def test_gradient_flags_named(self, tmp_path, capsys):
        argv = ["scenario", "gradient", "--modes", "5", "--cutoff", "7", "--seed", "9", "--trials", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        for flag in ("--modes", "--cutoff", "--seed", "--trials"):
            assert flag in err
        assert not (tmp_path / "scenario_gradient.json").exists()

    def test_read_settings_accepted(self, tmp_path):
        argv = ["scenario", "gradient", "--N", "6", "--mu", "2", "--tol", "1e-8"]
        assert main(argv + ["--out", str(tmp_path)]) == 0

    def test_gradient_help_lists_what_it_reads(self, capsys):
        assert main(["scenario", "gradient", "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[(--?\w+)", usage) == ["-h", "--out", "--format", "--tol", "--N", "--mu"]

    def test_optical_takes_every_setting(self, tmp_path):
        argv = ["scenario", "optical", "--out", str(tmp_path), "--format", "csv", "--seed", "5", "--trials", "2"]
        argv += ["--tol", "1e-8", "--N", "3", "--mu", "2", "--modes", "2", "--cutoff", "2"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "scenario_optical_manifest.json").read_text())
        resolved = ScenarioConfig(seed=5, trials=2, tol=1e-8, n_particles=3, mu=2, n_modes=2, mode_cutoff=2)
        assert manifest["config"] == asdict(resolved)
        assert (tmp_path / "scenario_optical.csv").exists()

    def test_flag_before_kind_refused(self, tmp_path):
        assert main(["scenario", "--trials", "2", "optical", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "scenario_optical.json").exists()

    @pytest.mark.parametrize("command, kind", [("audit", "t1"), ("scenario", "optical")])
    def test_flag_before_kind_names_the_rule(self, tmp_path, capsys, command, kind):
        assert main([command, "--trials", "2", kind, "--out", str(tmp_path)]) == 2
        assert "(flags follow the kind)" in capsys.readouterr().err
        assert not (tmp_path / f"{command}_{kind}.json").exists()

    @pytest.mark.parametrize("kind, seed, trials", [("t1", 42, 200), ("t2", 7, 200), ("prop1", 3, 1000)])
    def test_audit_help_lists_what_it_reads(self, kind, seed, trials, capsys):
        assert main(["audit", kind, "--help"]) == 0
        text = capsys.readouterr().out
        usage = text.split("\n\n")[0]
        assert re.findall(r"\[(--?\w+)", usage) == ["-h", "--out", "--format", "--seed", "--trials", "--tol"]
        assert f"random seed (default {seed})" in text
        assert f"accepted trials (default {trials})" in text


class TestManifestEcho:
    """The manifest's config echoes exactly the settings the kind reads."""

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (["audit", "t1", "--trials", "2"], {"seed": 42, "tol": 1e-9, "trials": 2}),
            (["audit", "t2", "--trials", "2"], {"seed": 7, "tol": 1e-9, "trials": 2}),
            (["audit", "prop1", "--trials", "5"], {"seed": 3, "tol": 1e-9, "trials": 5}),
            (["scenario", "gradient"], {"mu": 1, "n_particles": 4, "tol": 1e-9}),
            (["scenario", "optical", "--trials", "2"], asdict(ScenarioConfig(seed=11, trials=2))),
        ],
        ids=["t1", "t2", "prop1", "gradient", "optical"],
    )
    def test_config_echo(self, tmp_path, argv, echo):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{argv[0]}_{argv[1]}_manifest.json").read_text())
        assert manifest["config"] == echo
        assert manifest["seed"] == echo.get("seed")


class TestManifestRuntime:
    """The manifest says how the run was computed."""

    KEYS = {"numpy": str, "blas_config": str, "blas_core": str, "blas_threads": int, "zheevd_bound": bool, "heap_frozen": int}

    def _runtime(self, tmp_path):
        assert main(["scenario", "gradient", "--out", str(tmp_path)]) == 0
        return json.loads((tmp_path / "scenario_gradient_manifest.json").read_text())["runtime"]

    def test_keys_and_types(self, tmp_path):
        runtime = self._runtime(tmp_path)
        assert set(runtime) == set(self.KEYS)
        for key, kind in self.KEYS.items():
            # Only the names numpy's BLAS may lack can read null.
            assert type(runtime[key]) is kind or (runtime[key] is None and key.startswith("blas")), key
        assert runtime["zheevd_bound"] is (hilbert._zheevd is not None)
        assert runtime["numpy"] == np.__version__
        assert runtime["heap_frozen"] == gc.get_freeze_count()

    def test_missing_names_read_null(self, tmp_path, monkeypatch):
        for name in ("_zheevd", "_blas_config", "_blas_core", "_blas_threads"):
            monkeypatch.setattr(hilbert, name, None)
        runtime = self._runtime(tmp_path)
        assert set(runtime) == set(self.KEYS)
        assert [runtime[k] for k in ("blas_config", "blas_core", "blas_threads", "zheevd_bound")] == [None, None, None, False]


class TestDecomposeOnce:
    def test_mixed_qfim_run_factors_each_matrix_once(self, tmp_path, monkeypatch):
        # Four qubit sensors: a 16 x 16 probe and a 4 x 4 information matrix
        # with four 1 x 1 blocks, so the two sizes are told apart by shape.
        sensor = SensorSpec(2, (SIGMA_Z / 2,), np.diag([0.0, 1.0]))
        net = SensorNetwork((sensor,) * 4)
        rng = np.random.default_rng(4)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = g @ g.conj().T
        _write(tmp_path / "net.json", network_to_json(net))
        _write(tmp_path / "rho.json", matrix_to_json(rho / np.trace(rho).real))
        shapes = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, **kwargs):
                shapes.append(np.shape(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        # The probe's spectrum comes from the bound LAPACK zheevd where there
        # is one; its fourth argument is the order.
        if hilbert._zheevd is not None:
            bound = hilbert._zheevd

            def counted_zheevd(*args):
                shapes.append((args[3], args[3]))
                return bound(*args)

            monkeypatch.setattr(hilbert, "_zheevd", counted_zheevd)
        argv = ["qfim", str(tmp_path / "net.json"), str(tmp_path / "rho.json"), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads((tmp_path / "qfim.json").read_text())["residuals"] is not None
        assert shapes.count((16, 16)) == 1
        assert shapes.count((4, 4)) == 1

    def test_parsed_state_released_before_validation(self, tmp_path, monkeypatch):
        # The JSON document of a density matrix (nested lists of Python
        # floats) is several times the size of the decoded array; it must be
        # gone by the time the probe is validated and factored.
        dim = 64
        g = np.random.default_rng(5).standard_normal((dim, dim))
        rho = g @ g.T / np.sum(g**2)
        path = tmp_path / "rho.json"
        _write(path, matrix_to_json(rho))
        held = []
        real = cli.DensityOperator

        def measured(matrix, layout):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return real(matrix, layout)

        monkeypatch.setattr(cli, "DensityOperator", measured)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = cli._load_state(str(path), (dim,))
        finally:
            tracemalloc.stop()
        assert_allclose(state.matrix, rho, atol=0)
        assert held[0] < 4 * dim * dim * 16
