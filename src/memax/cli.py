"""Command-line front end: scan, solve, picard, history, stability, matrix, oracle.

Every run validates its config against the schema, emits a manifest
(config hash, library versions, tolerances, all certified constants used),
and writes deterministic artifacts to the output directory.  With --strict,
any certificate failure turns into a nonzero exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import reporting
from .config import RunConfig
from .errors import MemaxError, NotCertified
from .nonlinear import (DtPolarization, KernelSpec, SaturableNonlinearity, ball_solve,
                        picard_solve)
from .operators import YeeGrid, build_curl_pair, helmholtz_projections
from .signals import (
    TimeGrid,
    WeightedSignal,
    read_signal,
    smooth_pulse,
    write_signal,
)
from .spectral import LinearProblem, solve_linear
from .stepper import OracleStepper
from . import history as history_mod
from . import stability as stability_mod
from .materials import DrudeLorentzParams, ModDLParams, PiecewiseMaterial, accretivity_scan


def _finite(text: str) -> float:
    """A finite float, for argparse."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _ball_radius(text: str):
    """'auto' or a positive finite radius, for argparse."""
    if text != "auto" and not _finite(text) > 0:
        raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")
    return text if text == "auto" else float(text)


def _float_list(text: str) -> list:
    """A comma-separated list of finite floats, for argparse; '' is the empty list."""
    try:
        return [_finite(x) for x in text.split(",")] if text else []
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _out_dir(path: str) -> str:
    """An output directory, for argparse: a directory, or a path whose nearest
    existing ancestor is one."""
    found = path
    while found and not os.path.exists(found):
        found = os.path.dirname(found)
    if found and not os.path.isdir(found):
        raise argparse.ArgumentTypeError(f"not a directory: {path!r}" if found == path
                                         else f"not a directory: {found!r} (in {path!r})")
    return path


def _source_signal(cfg: RunConfig, bundle, grid: TimeGrid, rho: float) -> WeightedSignal:
    src = cfg.raw.get("source", {})
    t_on = float(src.get("t_on", 0.0))
    t_off = float(src.get("t_off", 2.0))
    amp = float(src.get("amplitude", 1.0))
    seed = int(src.get("seed", cfg.seed))
    rng = np.random.default_rng(seed)
    if src.get("divergence_free", True):
        phi_vec = bundle.C @ rng.standard_normal(bundle.n_faces)
        psi_vec = bundle.C0 @ rng.standard_normal(bundle.n_edges)
        vec = np.concatenate([phi_vec, psi_vec])
    else:
        vec = rng.standard_normal(bundle.n_state)
    vec *= amp / max(np.linalg.norm(vec), 1e-300)
    prof = smooth_pulse(grid.times, t_on, t_off)
    return WeightedSignal(grid, rho, prof[:, None] * vec[None, :], cfg.tolerances()["wrap_tol"])


def cmd_scan(args) -> int:
    cfg = RunConfig.from_file(args.config)
    _, _, _, laws, _ = cfg.material()
    tol = cfg.tolerances()
    out = {f"law{i}": accretivity_scan(law, nu=args.nu, delta_exclusion=tol["scan_delta"],
                                       condition_id="M2") for i, law in enumerate(laws)}
    reporting.write_json(os.path.join(args.out, "scan.json"), {
        "manifest": reporting.manifest(cfg.content_hash(), tol),
        "scans": {k: v.to_dict() for k, v in out.items()},
    })
    return 1 if args.strict and not all(s.certified for s in out.values()) else 0


def cmd_solve(args) -> int:
    cfg = RunConfig.from_file(args.config)
    bundle = cfg.bundle()
    material, *_ = cfg.material()
    grid = cfg.time_grid()
    g = _source_signal(cfg, bundle, grid, args.rho)
    u, rep = solve_linear(LinearProblem(bundle, material, args.rho, g))
    os.makedirs(args.out, exist_ok=True)
    write_signal(u, os.path.join(args.out, "solution.sig"))
    reporting.write_json(os.path.join(args.out, "solve_report.json"), {
        "manifest": reporting.manifest(cfg.content_hash(), cfg.tolerances(),
                                       {"c_min_line": rep.c_min_line}),
        "report": rep.to_dict(),
    })
    return 1 if args.strict and not rep.bound_ok() else 0


def cmd_picard(args) -> int:
    cfg = RunConfig.from_file(args.config)
    bundle = cfg.bundle()
    material, *_ = cfg.material()
    grid = cfg.time_grid()
    tol = cfg.tolerances()
    nl_cfg = cfg.raw.get("nonlinearity")
    if not nl_cfg or nl_cfg.get("kind") != "saturable":
        print("picard needs a saturable nonlinearity in the config", file=sys.stderr)
        return 2
    kcfg = nl_cfg.get("kernel", {"alpha": 1.0, "gamma": 1.5, "omega0": 3.0})
    spec = KernelSpec.from_dl(
        DrudeLorentzParams(1.0, [(kcfg["alpha"], kcfg["gamma"], kcfg["omega0"])]),
        TimeGrid(0.0, grid.dt, grid.n_samples), scale=float(kcfg.get("scale", 1.0)),
    )
    q = SaturableNonlinearity(int(nl_cfg.get("k", 3)), float(nl_cfg.get("tau", 1.0)))
    pol = DtPolarization(spec, q)
    g = _source_signal(cfg, bundle, grid, args.rho)
    problem = LinearProblem(bundle, material, args.rho, g)
    if args.ball_radius is not None:
        u, cert = ball_solve(problem, pol, weight=args.rho, alpha=1.0,
                             radius_policy=args.ball_radius, tol=tol["picard_tol"],
                             max_iter=int(tol["max_iter"]))
    else:
        u, cert = picard_solve(problem, pol,
                               tol=tol["picard_tol"], max_iter=int(tol["max_iter"]))
    os.makedirs(args.out, exist_ok=True)
    write_signal(u, os.path.join(args.out, "fixed_point.sig"))
    reporting.write_json(os.path.join(args.out, "certificate.json"), {
        "manifest": reporting.manifest(cfg.content_hash(), tol, cert.constants),
        "certificate": cert.to_dict(),
    })
    ok = cert.converged and cert.empirical_ratio <= cert.theoretical_bound * 1.05
    return 1 if args.strict and not ok else 0


def cmd_history(args) -> int:
    cfg = RunConfig.from_file(args.config)
    bundle = cfg.bundle()
    material, params1, params2, _, _ = cfg.material()
    grid = cfg.time_grid()
    hist_sig = read_signal(args.infile)
    hist = history_mod.HistorySpec(
        times=hist_sig.times - hist_sig.times[-1],
        values=hist_sig.values,
    )
    bump = history_mod.default_bump(grid, grid.t_end)
    Phi, Psi, conv = history_mod.build_maxwell_inhomogeneity(
        hist, bump, bundle, material, params1, params2, grid, args.rho)
    os.makedirs(args.out, exist_ok=True)
    write_signal(Phi, os.path.join(args.out, "Phi.sig"))
    write_signal(Psi, os.path.join(args.out, "Psi.sig"))
    reporting.write_json(os.path.join(args.out, "history_report.json"), {
        "manifest": reporting.manifest(cfg.content_hash(), cfg.tolerances()),
        "compatibility_residual": conv.compatibility_residual,
        "spike_metric": history_mod.delta_spike_metric(conv.g_phi),
    })
    return 0


def cmd_stability(args) -> int:
    cfg = RunConfig.from_file(args.config)
    bundle = cfg.bundle()
    material, _, _, laws, eps_infs = cfg.material()
    grid = cfg.time_grid()
    tol = cfg.tolerances()
    basis = helmholtz_projections(bundle)
    mu_faces = np.where(bundle.face_region_mask(), material.mu1, material.mu2)
    s2 = stability_mod.projection_invertibility_check(bundle, basis, 1.0 / mu_faces)
    cert = stability_mod.certify_decay_rate(laws, eps_infs, float(np.sqrt(s2)),
                                            delta=tol["scan_delta"])
    nu_list = args.nu or ([0.5 * cert.nu0] if cert.certified else [])
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "manifest": reporting.manifest(cfg.content_hash(), tol,
                                       {"nu0": cert.nu0, "c": cert.c, "c1": cert.c1,
                                        "d0": cert.d0, "sigma_min_B": cert.sigma_min_B}),
        "certificate": cert.to_dict(),
        "fits": [],
    }
    code = 1 if args.strict and not cert.certified else 0
    try:
        src = cfg.raw.get("source", {})
        t_off = float(src.get("t_off", 2.0))
        Phi, Psi = stability_mod.make_divergence_free_data(
            bundle, grid, -(nu_list[0] if nu_list else 0.0), cfg.seed,
            float(src.get("t_on", 0.0)), t_off)
        fits = stability_mod.simulate_decay(bundle, material, cert, Phi, Psi,
                                            nu_list, t_off,
                                            window_factor=tol["decay_window_factor"],
                                            decades=tol["decay_decades"])
        for f in fits:
            payload["fits"].append(f.to_dict())
            reporting.write_series_csv(
                os.path.join(args.out, f"energy_nu_{f.nu_run:.6g}.csv"),
                {"t": f.times, "state_norm": f.energy},
                meta={"nu_run": f.nu_run, "nu_hat": f.nu_hat, "r2": f.r_squared},
            )
    except NotCertified as exc:
        payload["refused"] = str(exc)
        code = 1 if args.strict else 0
    reporting.write_json(os.path.join(args.out, "stability.json"), payload)
    return code


def _default_battery():
    """(model, material, laws, eps_infs) rows; each law is its material's region-1 law."""
    p = DrudeLorentzParams(1.0, [(1.0, 1.0, 2.0)])
    rows = []
    for model, law, sigma in [("dl", p, 0.0), ("mod_dl", ModDLParams(p, 4.0), 0.0),
                              ("dl_sigma", p, 0.5)]:
        material = PiecewiseMaterial(law, law, 1.0, 1.0, sigma1=sigma, sigma2=sigma)
        rows.append((model, material, [material.eps_laws()[0]], [1.0]))
    return rows


def cmd_matrix(args) -> int:
    if args.battery != "default":
        print("only the built-in 'default' battery is packaged", file=sys.stderr)
        return 2
    bundle = build_curl_pair(YeeGrid((1.0, 1.0, 1.0), (4, 4, 4), 3, 2))
    basis = helmholtz_projections(bundle)
    fwd = TimeGrid(-2.0, 1.0 / 32.0, 512)
    dec = TimeGrid(-4.0, 0.25, 1024)
    rows = stability_mod.capability_matrix(bundle, basis, _default_battery(),
                                           fwd, dec, seed=args.seed)
    table = stability_mod.render_capability_table(rows)
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        reporting.write_text(os.path.join(args.out, "capability.txt"), table)
        reporting.write_json(os.path.join(args.out, "capability.json"), {
            "rows": [{"model": r.model, "wp0": r.wp0, "es0": r.es0,
                      "detail": r.detail} for r in rows],
        })
    expected = {"dl": (True, False), "mod_dl": (True, True), "dl_sigma": (True, True)}
    ok = all(expected.get(r.model, (r.wp0, r.es0)) == (r.wp0, r.es0) for r in rows)
    return 1 if args.strict and not ok else 0


def cmd_oracle(args) -> int:
    cfg = RunConfig.from_file(args.config)
    bundle = cfg.bundle()
    material, _, _, laws, _ = cfg.material()
    grid = cfg.time_grid()
    stp = OracleStepper(bundle, material, *laws, grid.dt)
    g = _source_signal(cfg, bundle, grid, 0.0)

    def phi_of(t):
        return g.values[grid.index_of(t), : bundle.n_edges].real

    def psi_of(t):
        return g.values[grid.index_of(t), bundle.n_edges:].real

    k0 = grid.index_of(0.0)
    state = stp.initial_state()
    times, E, H = stp.run(state, phi_of, psi_of, grid.n_samples - 1 - k0)
    os.makedirs(args.out, exist_ok=True)
    traj = WeightedSignal(TimeGrid(0.0, grid.dt, len(times)), 0.0,
                          np.concatenate([E, H], axis=1))
    write_signal(traj, os.path.join(args.out, "oracle.sig"))
    reporting.write_json(os.path.join(args.out, "oracle_report.json"), {
        "manifest": reporting.manifest(cfg.content_hash(), cfg.tolerances()),
        "n_steps": len(times) - 1,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="memax",
                                 description="Maxwell-with-memory laboratory")
    ap.add_argument("--strict", action="store_true",
                    help="nonzero exit on any certificate failure")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="accretivity scan of the configured law")
    p.add_argument("--config", required=True)
    p.add_argument("--nu", type=_finite, default=0.0)
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("solve", help="linear forward solve")
    p.add_argument("--config", required=True)
    p.add_argument("--rho", type=_finite, required=True)
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("picard", help="nonlinear fixed-point solve")
    p.add_argument("--config", required=True)
    p.add_argument("--rho", type=_finite, required=True)
    p.add_argument("--ball-radius", type=_ball_radius, default=None)
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(fn=cmd_picard)

    p = sub.add_parser("history", help="convert a stored history to (Phi, Psi)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--rho", type=_finite, default=1.0)
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(fn=cmd_history)

    p = sub.add_parser("stability", help="decay certificate and simulated decay")
    p.add_argument("--config", required=True)
    p.add_argument("--nu", type=_float_list, default="")
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("matrix", help="capability matrix battery")
    p.add_argument("--battery", default="default")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", type=_out_dir, default="")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("oracle", help="time-domain reference run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MemaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
