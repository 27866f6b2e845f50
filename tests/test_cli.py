"""Command-line front end: schema, determinism, artifacts, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import memax
import memax.cli as cli
from memax import ConfigError, RunConfig, default_config_dict
from memax.cli import main
from memax.reporting import file_hash


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config_dict()))
    return str(path)


class TestConfig:
    def test_unknown_key_rejected(self):
        raw = default_config_dict()
        raw["grid"]["n_cellz"] = [4, 4, 4]
        with pytest.raises(ConfigError, match="grid.n_cellz"):
            RunConfig.from_dict(raw)

    def test_schema_version_required(self):
        raw = default_config_dict()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            RunConfig.from_dict(raw)

    def test_tolerances_defaulted(self):
        cfg = RunConfig.from_dict(default_config_dict())
        tol = cfg.tolerances()
        assert tol["wrap_tol"] == 1e-8
        assert tol["picard_tol"] == 1e-10

    def test_sigma_needs_model(self):
        raw = default_config_dict()
        raw["material"]["sigma"] = 0.5
        with pytest.raises(ConfigError, match="dl_sigma"):
            RunConfig.from_dict(raw).material()

    @pytest.mark.parametrize("path, value", [
        ("grid.n_cells", "4"),
        ("time.dt", -0.03),
        ("material.terms", []),
        ("time.n_samples", 512.5),
        ("grid.interface_index", 0),
        ("grid.interface_index", 4),
        ("material.eps0", 0.0),
        ("material.eps0", -1.0),
        ("material.mu", [1.0, -2.0]),
        ("material.mu", 0.0),
        ("material.r", 0),
        ("material.r", "4"),
        ("material.region2.r", -1.0),
        ("material.sigma", "0.5"),
        ("material.sigma", -0.5),
        ("material.region2.sigma", float("nan")),
        ("source.t_on", float("inf")),
        ("source.t_off", "2"),
        ("source.amplitude", None),
        ("source.seed", 7.5),
        ("source.divergence_free", 1),
        ("weights.rho", [2.0, "x"]),
        ("weights.nu", 0.1),
        ("nonlinearity.k", 1),
        ("nonlinearity.k", 3.0),
        ("nonlinearity.tau", -1),
        ("nonlinearity.kernel.alpha", 0.0),
        ("nonlinearity.kernel.gamma", -1.5),
        ("nonlinearity.kernel.omega0", -3.0),
        ("nonlinearity.kernel.scale", float("nan")),
        ("material", 5),
        ("material.region2", 7),
        ("source", "x"),
        ("nonlinearity.kernel", [1.0]),
        ("nonlinearity.kernel", {"gamma": 1.5, "omega0": 3.0}),
        ("nonlinearity.kernel", {"alpha": 1.0, "omega0": 3.0}),
        ("nonlinearity.kernel", {"alpha": 1.0, "gamma": 1.5}),
        ("tolerances.wrap_tol", 0.0),
        ("tolerances.picard_tol", "1e-10"),
        ("tolerances.max_iter", 0),
        ("tolerances.max_iter", 200.0),
        ("tolerances.scan_delta", -1.0),
        ("tolerances.decay_window_factor", None),
        ("tolerances.decay_decades", float("inf")),
        ("seed", 1.5),
        ("source.t_off", 0.0),     # the pulse would have no support: t_off <= t_on (0)
        ("source.t_on", 3.0),      # after the default t_off (2)
    ])
    def test_bad_value_names_key(self, path, value):
        raw = default_config_dict()
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        with pytest.raises(ConfigError, match=re.escape(path)):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("path", ["material.r", "material.region2.r"])
    def test_mod_dl_needs_r(self, path):
        raw = default_config_dict()
        del raw["material"]["r"]
        if path == "material.region2.r":
            raw["material"].update(model="dl", region2={"model": "mod_dl"})
        with pytest.raises(ConfigError, match=re.escape(path)):
            RunConfig.from_dict(raw)
        # region 2 inherits r from region 1
        raw["material"]["r"] = 4.0
        RunConfig.from_dict(raw).material()

    def test_region2_conductivity_reaches_the_material(self):
        raw = default_config_dict()
        raw["material"] = {"model": "dl", "eps0": 1.0,
                           "terms": [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}],
                           "mu": [1.0, 1.0], "region2": {"model": "dl_sigma", "sigma": 0.3}}
        material, *_ = RunConfig.from_dict(raw).material()
        assert (material.sigma1, material.sigma2) == (0.0, 0.3)
        assert material.eps_laws()[1].name == "dl_sigma"

    def test_region2_inherits_no_conductivity(self):
        # a dl region 2 beside a dl_sigma region 1 takes its terms, not its sigma
        raw = default_config_dict()
        raw["material"] = {"model": "dl_sigma", "sigma": 0.5, "eps0": 1.0,
                           "terms": [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}],
                           "mu": [1.0, 1.0], "region2": {"model": "dl"}}
        material, params1, params2, *_ = RunConfig.from_dict(raw).material()
        assert (material.sigma1, material.sigma2) == (0.5, 0.0)
        assert material.eps_laws()[1].name == "dl" and params2 == params1

    def test_hash_stable(self):
        c1 = RunConfig.from_dict(default_config_dict())
        c2 = RunConfig.from_dict(default_config_dict())
        assert c1.content_hash() == c2.content_hash()


class TestCLI:
    def test_empty_invocation_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_config_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--rho", "2.0", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_scan_and_solve(self, config_path, tmp_path):
        rc = main(["scan", "--config", config_path, "--nu", "0.02",
                   "--out", str(tmp_path / "scan")])
        assert rc == 0
        scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
        assert scan["scans"]["law0"]["c_min"] > 0  # mod-DL certifies here
        assert scan["manifest"]["config_hash"]

        rc = main(["solve", "--config", config_path, "--rho", "2.0",
                   "--out", str(tmp_path / "solve")])
        assert rc == 0
        rep = json.loads((tmp_path / "solve" / "solve_report.json").read_text())
        assert rep["report"]["c_min_line"] > 0
        assert rep["report"]["refined_bins"] == 0
        assert len(rep["report"]["worst_residual_z"]) == len(rep["report"]["worst_growth_z"]) == 2
        assert rep["manifest"]["constants"]["c_min_line"] > 0
        assert (tmp_path / "solve" / "solution.sig").exists()

    def test_growth_against_certificate(self, config_path, tmp_path):
        # the worst bin growth times c_min stays under the certified bound
        # and is recomputable from the report's own fields
        from memax.spectral import BOUND_SLACK

        rc = main(["solve", "--config", config_path, "--rho", "2.0",
                   "--out", str(tmp_path / "solve")])
        assert rc == 0
        rep = json.loads((tmp_path / "solve" / "solve_report.json").read_text())["report"]
        assert rep["c_min_line"] > 0
        assert rep["growth_x_cmin"] == rep["max_growth"] * rep["c_min_line"]
        assert 0.0 < rep["growth_x_cmin"] <= 1.0 + BOUND_SLACK

    def test_deterministic_reruns(self, config_path, tmp_path):
        for d in ("a", "b"):
            rc = main(["solve", "--config", config_path, "--rho", "2.0",
                       "--out", str(tmp_path / d)])
            assert rc == 0
        for name in ("solve_report.json", "solution.sig"):
            assert file_hash(str(tmp_path / "a" / name)) == \
                file_hash(str(tmp_path / "b" / name))

    @pytest.fixture(scope="class")
    def picard_artifact(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("picard")
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0,
                               "kernel": {"alpha": 0.8, "gamma": 1.5, "omega0": 3.0}}
        path = tmp_path / "nl.json"
        path.write_text(json.dumps(raw))
        rc = main(["picard", "--config", str(path), "--rho", "2.0",
                   "--out", str(tmp_path / "picard")])
        assert rc == 0
        return json.loads((tmp_path / "picard" / "certificate.json").read_text())

    def test_picard_certificate(self, picard_artifact):
        cert = picard_artifact
        c = cert["certificate"]
        assert c["converged"] is True
        assert c["theoretical_bound"] < 1.0
        assert c["empirical_ratio"] <= c["theoretical_bound"] * 1.05
        for key in ("L_kappa", "kappa_at_0plus", "q_lip", "c_min_line"):
            assert key in cert["manifest"]["constants"]

    def test_picard_ratio_recomputable(self, picard_artifact):
        # the certified rate is the largest ratio of successive step gaps
        c = picard_artifact["certificate"]
        gaps = c["gaps"]
        assert len(gaps) == c["iterations"] >= 2
        ratios = [b / max(a, 1e-300) for a, b in zip(gaps, gaps[1:])]
        assert max(ratios) == c["empirical_ratio"]

    def test_history_roundtrip(self, config_path, tmp_path, bundle4):
        from memax import TimeGrid, WeightedSignal, write_signal

        # store a small history container ending at t = 0
        grid = TimeGrid(-1.0, 1.0 / 32.0, 33)
        vals = np.outer(np.exp(grid.times), np.ones(bundle4.n_state))
        write_signal(WeightedSignal(grid, 0.0, vals), str(tmp_path / "hist.sig"))
        rc = main(["history", "--in", str(tmp_path / "hist.sig"),
                   "--config", config_path, "--rho", "1.0",
                   "--out", str(tmp_path / "hist_out")])
        assert rc == 0
        rep = json.loads((tmp_path / "hist_out" / "history_report.json").read_text())
        assert "compatibility_residual" in rep
        assert (tmp_path / "hist_out" / "Phi.sig").exists()
        assert (tmp_path / "hist_out" / "Psi.sig").exists()

    def test_history_longer_than_window_is_an_error(self, config_path, tmp_path, bundle4,
                                                    capsys):
        from memax import TimeGrid, WeightedSignal, write_signal

        # the default window starts at t = -2; this history starts at t = -4
        grid = TimeGrid(-4.0, 1.0 / 32.0, 129)
        vals = np.outer(np.exp(grid.times), np.ones(bundle4.n_state))
        write_signal(WeightedSignal(grid, 0.0, vals), str(tmp_path / "hist.sig"))
        rc = main(["history", "--in", str(tmp_path / "hist.sig"),
                   "--config", config_path, "--out", str(tmp_path / "hist_out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "t = -4" in err and "t = -2" in err

    @pytest.mark.parametrize("dt, t_start, names", [
        (1.0 / 64.0, -2.0, ("dt = 0.015625", "dt = 0.03125")),   # the step differs
        (1.0 / 32.0, -2.01, ("0.01 off", "t_start = -2.01")),     # off the window grid
    ])
    def test_history_off_the_window_grid_is_an_error(self, dt, t_start, names, tmp_path,
                                                     bundle4, capsys):
        from memax import TimeGrid, WeightedSignal, write_signal

        raw = default_config_dict()
        raw["time"]["t_start"] = t_start
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        grid = TimeGrid(-1.0, dt, int(round(1.0 / dt)) + 1)   # ends at t = 0
        vals = np.outer(np.exp(grid.times), np.ones(bundle4.n_state))
        write_signal(WeightedSignal(grid, 0.0, vals), str(tmp_path / "hist.sig"))
        rc = main(["history", "--in", str(tmp_path / "hist.sig"),
                   "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "hist_out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(name in err for name in names)

    @pytest.mark.parametrize("damage, names", [
        (lambda b: b[:12], ("12 bytes", "56-byte")),                       # no whole header
        (lambda b: b[:-8], ("1608 bytes", "expected 1616")),              # a sample cut off
        (lambda b: b"XXXX" + b[4:], ("b'XXXX'", "b'MXSG'")),              # wrong magic
        (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], ("version 2", "expected 1")),
    ], ids=["short", "truncated", "magic", "version"])
    def test_history_from_a_damaged_container_is_an_error(self, damage, names, config_path,
                                                           tmp_path, capsys):
        from memax import TimeGrid, WeightedSignal, write_signal

        path = tmp_path / "hist.sig"
        grid = TimeGrid(-2.0, 1.0 / 32.0, 65)
        write_signal(WeightedSignal(grid, 0.0, np.ones((65, 3))), str(path))
        path.write_bytes(damage(path.read_bytes()))
        rc = main(["history", "--in", str(path), "--config", config_path,
                   "--out", str(tmp_path / "hist_out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and all(name in err for name in names)

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 1)])
    def test_scan_refuses_a_region_with_a_pole(self, tmp_path, strict, code):
        # the poles -1 +- 1.732i lie inside Re z >= -3: no margin, not certified
        raw = default_config_dict()
        raw["material"].update(terms=[{"alpha": 8.0, "gamma": 1.0, "omega0": 2.0}], r=0.5)
        path = tmp_path / "poles.json"
        path.write_text(json.dumps(raw))
        rc = main((["--strict"] if strict else []) + [
            "scan", "--config", str(path), "--nu", "3", "--out", str(tmp_path / "scan")])
        assert rc == code
        scan = json.loads((tmp_path / "scan" / "scan.json").read_text())["scans"]["law0"]
        assert scan["certified"] is False and scan["c_min"] == "-inf"
        assert scan["argmin_re"] == pytest.approx(-1.0, abs=1e-12)

    def test_stability_refuses_plain_dl_strict(self, tmp_path):
        raw = default_config_dict()
        raw["material"] = {"model": "dl", "eps0": 1.0,
                           "terms": [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}],
                           "mu": [1.0, 1.0]}
        raw["time"] = {"t_start": -4.0, "dt": 0.25, "n_samples": 1024}
        path = tmp_path / "dl.json"
        path.write_text(json.dumps(raw))
        rc = main(["--strict", "stability", "--config", str(path), "--nu", "0.02",
                   "--out", str(tmp_path / "stab")])
        assert rc == 1
        rep = json.loads((tmp_path / "stab" / "stability.json").read_text())
        assert "refused" in rep

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 1)])
    def test_stability_refuses_drude_term(self, tmp_path, strict, code):
        # a Drude term (omega0 = 0) puts a pole at z = 0, outside the damped
        # reduction: a refused certificate, not a traceback
        raw = default_config_dict()
        raw["material"]["terms"] = [{"alpha": 0.8, "gamma": 2.0, "omega0": 0.0}]
        path = tmp_path / "drude.json"
        path.write_text(json.dumps(raw))
        rc = main((["--strict"] if strict else []) + [
            "stability", "--config", str(path), "--out", str(tmp_path / "stab")])
        assert rc == code
        cert = json.loads((tmp_path / "stab" / "stability.json").read_text())["certificate"]
        assert cert["certified"] is False
        assert "pole at z = 0" in cert["reason"]

    def test_stability_mod_dl_runs(self, tmp_path):
        raw = default_config_dict()
        raw["time"] = {"t_start": -4.0, "dt": 0.25, "n_samples": 1024}
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(raw))
        rc = main(["stability", "--config", str(path),
                   "--out", str(tmp_path / "stab")])
        assert rc == 0
        rep = json.loads((tmp_path / "stab" / "stability.json").read_text())
        assert rep["certificate"]["certified"] is True
        assert rep["fits"] and rep["fits"][0]["r_squared"] > 0.99
        csvs = [f for f in os.listdir(tmp_path / "stab") if f.endswith(".csv")]
        assert csvs
        text = (tmp_path / "stab" / csvs[0]).read_text()
        assert text.startswith("#")  # documented columns

    def test_oracle_run(self, config_path, tmp_path):
        rc = main(["oracle", "--config", config_path,
                   "--out", str(tmp_path / "oracle")])
        assert rc == 0
        assert (tmp_path / "oracle" / "oracle.sig").exists()

    def test_oracle_steps_take_the_mean_of_two_samples(self, config_path, tmp_path,
                                                        monkeypatch):
        # the step from t_k to t_k + dt sees (g_k + g_{k+1}) / 2 of the source
        # signal the solve command builds: every sample reaches the stepper
        cfg = RunConfig.from_file(config_path)
        bundle, grid = cfg.bundle(), cfg.time_grid()
        g = cli._source_signal(cfg, bundle, grid, 0.0).values
        received, step = [], memax.OracleStepper.step

        def recording(self, state, phi_mid, psi_mid):
            received.append(np.concatenate([phi_mid, psi_mid]))
            return step(self, state, phi_mid, psi_mid)

        monkeypatch.setattr(memax.OracleStepper, "step", recording)
        assert main(["oracle", "--config", config_path, "--out", str(tmp_path / "o")]) == 0
        k0 = grid.index_of(0.0)
        assert len(received) == grid.n_samples - 1 - k0
        np.testing.assert_array_equal(np.array(received), 0.5 * (g[k0:-1] + g[k0 + 1:]))

    def test_oracle_writes_its_trajectory_without_a_copy(self, config_path, tmp_path):
        # the command holds the stepper's array of states and little else: no
        # copy of the source, of the trajectory or of its payload
        import tracemalloc

        assert main(["oracle", "--config", config_path, "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(["oracle", "--config", config_path, "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        traj = memax.read_signal(str(tmp_path / "o" / "oracle.sig")).values
        assert traj.dtype == np.float64
        assert peak < 1.3 * traj.nbytes

    def test_oracle_conduction_current(self, tmp_path):
        # a conductive config: the oracle integrates sigma E on each region's
        # edges and so agrees with the spectral solve of the same run
        from memax.signals import read_signal

        raw = default_config_dict()
        raw["material"] = {"model": "dl_sigma", "eps0": 1.0, "sigma": 0.5,
                           "terms": [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}],
                           "mu": [1.0, 1.0], "region2": {"sigma": 0.2}}
        raw["time"] = {"t_start": -0.5, "dt": 1.0 / 256.0, "n_samples": 1024}
        raw["source"]["t_off"] = 1.0
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(raw))
        assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert main(["solve", "--config", str(path), "--rho", "4.0",
                     "--out", str(tmp_path / "s")]) == 0
        oracle = read_signal(str(tmp_path / "o" / "oracle.sig")).values.real
        spectral = read_signal(str(tmp_path / "s" / "solution.sig"))
        spectral = spectral.values[spectral.grid.index_of(0.0):].real
        rel = np.linalg.norm(oracle - spectral) / np.linalg.norm(spectral)
        assert rel < 5e-3


class TestTypedFailures:
    """Bad arguments end in one `error: ...` line and exit 1, or in argparse's
    usage line and exit 2, never in a traceback."""

    @pytest.mark.parametrize("command, rho", [("solve", "0"), ("solve", "-5"),
                                              ("picard", "0")])
    def test_uncertified_line(self, command, rho, tmp_path, capsys):
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        rc = main([command, "--config", str(tmp_path / "cfg.json"), "--rho", rho,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: no accretivity certificate on the line Re z = {float(rho)} (c_min = ")

    @pytest.mark.parametrize("path, value, command", [
        ("tolerances.max_iter", "abc", ["picard", "--rho", "2.0"]),
        ("seed", "x", ["stability"]),
        ("tolerances.scan_delta", "a", ["scan"]),
        ("tolerances.decay_window_factor", -1, ["stability", "--nu", "0.01"]),
    ], ids=["max_iter-picard", "seed-stability", "scan_delta-scan",
            "decay_window_factor-stability"])
    def test_config_value_checked_before_use(self, path, value, command, tmp_path, capsys):
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0}
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        rc = main([command[0], "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out"), *command[1:]])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path} must be ")
        assert not (tmp_path / "out").exists()

    def test_picard_runaway_says_the_gaps_grew(self, tmp_path, capsys, monkeypatch):
        # a polarization whose Lipschitz bound under-reports a kernel scaled
        # up 100-fold passes the contraction check, the step gaps grow from
        # the first step on, and the run stops as a runaway long before
        # max_iter (200)
        class UnderReported(cli.DtPolarization):
            def lip_bound(self, rho):
                return 1e-3 * super().lip_bound(rho)

        monkeypatch.setattr(cli, "DtPolarization", UnderReported)
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0,
                               "kernel": {"alpha": 0.8, "gamma": 1.5, "omega0": 3.0,
                                          "scale": 100.0}}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        rc = main(["picard", "--config", str(tmp_path / "cfg.json"), "--rho", "3.0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        match = re.fullmatch(r"error: runaway after (\d+) iterations: the step gaps grew by "
                             r"ratios (\S+), (\S+), (\S+) \(last residual \S+\)", err[0])
        assert match and int(match[1]) < 200
        assert all(float(r) > 2.0 for r in match.groups()[1:])
        assert not (tmp_path / "out").exists()

    def test_picard_converges_at_rho_3(self, tmp_path):
        # the CI's saturable law at rho = 3: the memory term is a product on
        # the solve's line, so no e^{rho t} round-off grows the gaps
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0,
                               "kernel": {"alpha": 0.8, "gamma": 1.5, "omega0": 3.0,
                                          "scale": 4.0}}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        rc = main(["picard", "--config", str(tmp_path / "cfg.json"), "--rho", "3.0",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        c = json.loads((tmp_path / "out" / "certificate.json").read_text())["certificate"]
        assert c["converged"] and c["empirical_ratio"] <= c["theoretical_bound"] < 1.0
        assert c["line_steps"] == c["iterations"] + 1 and c["time_steps"] == 0

    @pytest.mark.parametrize("wrap_tol, code", [(1e-9, 0), (1e-300, 1)])
    def test_solve_reads_wrap_tol(self, wrap_tol, code, tmp_path, capsys):
        # a pulse ending past the window leaves a weighted endpoint of 2e-13
        from memax.signals import read_signal

        raw = default_config_dict()
        raw["source"]["t_off"] = 15.0
        raw["tolerances"] = {"wrap_tol": wrap_tol}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        rc = main(["solve", "--config", str(tmp_path / "cfg.json"), "--rho", "2.0",
                   "--out", str(tmp_path / "out")])
        assert rc == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: weighted endpoint magnitude ")
            assert err[0].endswith("exceeds the declared wraparound tolerance 1.000e-300")
        else:
            assert read_signal(str(tmp_path / "out" / "solution.sig")).wrap_tol == wrap_tol

    @pytest.mark.parametrize("ball", [[], ["--ball-radius", "auto"]], ids=["picard", "ball"])
    def test_picard_reads_wrap_tol(self, ball, tmp_path, capsys):
        # the data test_solve_reads_wrap_tol refuses to solve: picard refuses it too
        raw = default_config_dict()
        raw["source"]["t_off"] = 15.0
        raw["tolerances"] = {"wrap_tol": 1e-300}
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        rc = main(["picard", "--config", str(tmp_path / "cfg.json"), "--rho", "2.0", *ball,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: weighted endpoint magnitude ")
        assert err[0].endswith("exceeds the declared wraparound tolerance 1.000e-300")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["picard", "--rho", "2.0", "--ball-radius", "abc"], "--ball-radius: not a finite number"),
        (["picard", "--rho", "2.0", "--ball-radius", "0"], "--ball-radius: not a positive number"),
        (["picard", "--rho", "2.0", "--ball-radius", "-1"], "--ball-radius: not a positive number"),
        (["picard", "--rho", "2.0", "--ball-radius", "nan"], "--ball-radius: not a finite number"),
        (["picard", "--rho", "inf"], "--rho: not a finite number"),
        (["solve", "--rho", "nan"], "--rho: not a finite number"),
        (["solve", "--rho", "inf"], "--rho: not a finite number"),
        (["solve", "--rho=-inf"], "--rho: not a finite number"),
        (["scan", "--nu", "nan"], "--nu: not a finite number"),
        (["stability", "--nu", "nan"], "--nu: not a comma-separated list of numbers"),
        (["stability", "--nu", "0.01,inf"], "--nu: not a comma-separated list of numbers"),
    ], ids=["ball-abc", "ball-0", "ball-neg", "ball-nan", "picard-rho-inf", "solve-rho-nan",
            "solve-rho-inf", "solve-rho-neg-inf", "scan-nu-nan", "stability-nu-nan",
            "stability-nu-inf"])
    def test_bad_number_is_a_usage_error(self, argv, message, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", config_path, "--out", str(tmp_path / "out"), *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: memax {argv[0]}")
        value = argv[-1].split("=")[-1]
        assert err[-1].endswith(f"argument {message}: {value!r}")
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_is_a_usage_error(self, config_path, tmp_path, capsys):
        (tmp_path / "out").write_text("kept")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", config_path, "--rho", "2.0", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: memax solve")
        assert err[-1].endswith(f"argument --out: not a directory: {str(tmp_path / 'out')!r}")
        assert (tmp_path / "out").read_text() == "kept"

    def test_out_below_a_file_is_a_usage_error(self, config_path, tmp_path, capsys):
        # refused by argparse before any work, and the file is left as it was
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = str(afile / "sub")
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--config", config_path, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: memax scan")
        assert err[-1].endswith(f"argument --out: not a directory: {str(afile)!r} (in {out!r})")
        assert afile.read_text() == "kept"

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00{}")
        rc = main(["scan", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not UTF-8 text (byte 0: 0xff)"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["scan"], ["solve", "--rho", "2.0"],
                                      ["picard", "--rho", "2.0"],
                                      ["history", "--in", "h.sig"], ["stability"], ["oracle"]],
                             ids=lambda argv: argv[0])
    def test_missing_config_file(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        rc = main([argv[0], "--config", missing, "--out", str(tmp_path / "out"), *argv[1:]])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {missing}: No such file or directory"]
        assert not (tmp_path / "out").exists()

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path), "--rho", "2.0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: Is a directory"]

    def test_missing_history_file(self, config_path, tmp_path, capsys):
        missing = str(tmp_path / "missing.sig")
        rc = main(["history", "--in", missing, "--config", config_path,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {missing}: No such file or directory"]
        assert not (tmp_path / "out").exists()

    def test_non_numeric_nu_is_a_usage_error(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--config", config_path, "--nu", "abc",
                  "--out", str(tmp_path / "stab")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: memax stability")
        assert err[-1].endswith("argument --nu: not a comma-separated list of numbers: 'abc'")
        assert not (tmp_path / "stab").exists()

    def test_overdamped_region_runs_in_the_oracle(self, tmp_path):
        raw = default_config_dict()
        raw["material"]["region2"] = {"model": "dl", "eps0": 1.0,
                                      "terms": [{"alpha": 0.8, "gamma": 2.0, "omega0": 1.2}]}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main(["oracle", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "oracle.sig").exists()

    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(memax.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "memax", "--help"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0 and run.stdout.startswith("usage: memax")


def test_artifacts_independent_of_blas_threads(tmp_path):
    """solve, oracle, the mod-DL stability run and picard with and without a
    ball write the same bytes with one and with two BLAS/OpenMP threads, each
    in a fresh process."""
    mod = default_config_dict()
    mod["time"] = {"t_start": -4.0, "dt": 0.25, "n_samples": 1024}
    nl = dict(default_config_dict(), nonlinearity={"kind": "saturable", "k": 3, "tau": 1.0})
    nl["source"] = dict(nl["source"], amplitude=0.01)
    configs = {"default": default_config_dict(), "mod": mod, "nl": nl}
    for name, raw in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
    runs = [("solve", "default", ["--rho", "2.0"]), ("oracle", "default", []),
            ("stability", "mod", []), ("picard", "nl", ["--rho", "2.0"]),
            ("picard", "nl", ["--rho", "2.0", "--ball-radius", "auto"])]
    src = os.path.dirname(os.path.dirname(os.path.abspath(memax.__file__)))
    hashes = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for i, (command, config, extra) in enumerate(runs):
            out = tmp_path / threads / f"{command}{i}"
            subprocess.run([sys.executable, "-m", "memax.cli", command, "--config",
                            str(tmp_path / f"{config}.json"), *extra, "--out", str(out)],
                           env=env, check=True, timeout=600)
            for f in sorted(out.iterdir()):
                hashes.setdefault((command, i, f.name), []).append(file_hash(str(f)))
    assert len(hashes) >= 9
    assert sorted(key for key, h in hashes.items() if len(h) != 2 or h[0] != h[1]) == []


@pytest.mark.slow
class TestMatrixCommand:
    def test_default_battery(self, tmp_path, capsys):
        rc = main(["matrix", "--battery", "default", "--seed", "5",
                   "--out", str(tmp_path / "matrix")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dl" in out and "mod_dl" in out
        rows = json.loads((tmp_path / "matrix" / "capability.json").read_text())["rows"]
        by = {r["model"]: r for r in rows}
        assert by["dl"]["wp0"] and not by["dl"]["es0"]
        assert by["mod_dl"]["wp0"] and by["mod_dl"]["es0"]
        assert by["dl_sigma"]["wp0"] and by["dl_sigma"]["es0"]


class TestPicardBall:
    def test_ball_radius_flag(self, tmp_path):
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0,
                               "kernel": {"alpha": 0.8, "gamma": 1.5, "omega0": 3.0}}
        raw["source"]["amplitude"] = 0.01
        path = tmp_path / "nl.json"
        path.write_text(json.dumps(raw))
        rc = main(["picard", "--config", str(path), "--rho", "2.0",
                   "--ball-radius", "auto", "--out", str(tmp_path / "ball")])
        assert rc == 0
        cert = json.loads((tmp_path / "ball" / "certificate.json").read_text())
        assert cert["certificate"]["converged"] is True
        assert "radius" in cert["certificate"]["constants"]

    @pytest.mark.parametrize("radius", ["auto", "0.01"])
    def test_decay_weight_needs_a_stability_constant(self, radius, tmp_path, capsys):
        # a ball solve at a decay weight has no K_linear to take from the CLI:
        # a typed refusal, exit 1, no artifacts
        raw = default_config_dict()
        raw["nonlinearity"] = {"kind": "saturable", "k": 3, "tau": 1.0}
        path = tmp_path / "nl.json"
        path.write_text(json.dumps(raw))
        rc = main(["picard", "--config", str(path), "--rho", "-0.05",
                   "--ball-radius", radius, "--out", str(tmp_path / "ball")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: no accretivity certificate at weight -0.05: a decay-weight "
                       "ball solve needs the linear stability constant K_linear"]
        assert not (tmp_path / "ball").exists()
