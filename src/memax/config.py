"""Run configuration: schema-validated JSON, with builders for the lab objects.

One structured-text format with an explicit schema version; unknown keys are
rejected with their path, every tolerance has a recorded default, and the
manifest carries the config hash so batteries can reference configs by hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .materials import (
    DrudeLorentzParams,
    ModDLParams,
    PiecewiseMaterial,
    conductivity_law,
    dl_law,
    mod_dl_law,
)
from .operators import YeeGrid, build_curl_pair
from .signals import TimeGrid

SCHEMA_VERSION = 1

TOLERANCE_DEFAULTS = {
    "wrap_tol": 1e-8,
    "picard_tol": 1e-10,
    "max_iter": 200,
    "scan_delta": 1.0,
    "decay_window_factor": 3.0,
    "decay_decades": 4.0,
}

_SCHEMA = {
    "schema_version": None,
    "grid": {"extents": None, "n_cells": None, "interface_axis": None, "interface_index": None},
    "material": {
        "model": None, "eps0": None, "terms": None, "r": None, "sigma": None,
        "mu": None, "region2": {"model": None, "eps0": None, "terms": None,
                                "r": None, "sigma": None},
    },
    "time": {"t_start": None, "dt": None, "n_samples": None},
    "weights": {"rho": None, "nu": None},
    "source": {"kind": None, "t_on": None, "t_off": None, "seed": None,
               "divergence_free": None, "amplitude": None},
    "nonlinearity": {"kind": None, "k": None, "tau": None,
                     "kernel": {"alpha": None, "gamma": None, "omega0": None, "scale": None}},
    "tolerances": {k: None for k in TOLERANCE_DEFAULTS},
    "seed": None,
}


def _check_keys(data, schema, path=""):
    if not isinstance(data, dict):
        return
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {here}")
        sub = schema[key]
        if isinstance(sub, dict) and isinstance(value, dict):
            _check_keys(value, sub, here)


@dataclass
class RunConfig:
    """Validated configuration plus the raw dict it came from."""

    raw: dict

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        return RunConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        _check_keys(raw, _SCHEMA)
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        for section in ("grid", "material", "time"):
            if section not in raw:
                raise ConfigError(f"missing config section: {section}")
        return RunConfig(raw=raw)

    # -- accessors -----------------------------------------------------------

    def content_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def tolerances(self) -> dict:
        out = dict(TOLERANCE_DEFAULTS)
        out.update(self.raw.get("tolerances", {}))
        return out

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 1234))

    def yee_grid(self) -> YeeGrid:
        g = self.raw["grid"]
        return YeeGrid(
            extents=tuple(g["extents"]),
            n_cells=tuple(g["n_cells"]),
            interface_axis=int(g.get("interface_axis", 3)),
            interface_index=int(g.get("interface_index", g["n_cells"][int(g.get("interface_axis", 3)) - 1] // 2)),
        )

    def time_grid(self) -> TimeGrid:
        t = self.raw["time"]
        return TimeGrid(float(t["t_start"]), float(t["dt"]), int(t["n_samples"]))

    def _law_params(self, section: dict):
        model = section.get("model", "dl")
        eps0 = float(section.get("eps0", 1.0))
        terms = [(float(t["alpha"]), float(t["gamma"]), float(t["omega0"]))
                 for t in section.get("terms", [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}])]
        params = DrudeLorentzParams(eps0, terms)
        sigma = float(section.get("sigma", 0.0))
        if model in ("dl", "mod_dl") and sigma != 0.0:
            raise ConfigError("sigma requires model = dl_sigma")
        if model == "dl":
            return params, dl_law(params), sigma
        if model == "mod_dl":
            mp = ModDLParams(params, float(section["r"]))
            return mp, mod_dl_law(mp), sigma
        if model == "dl_sigma":
            if sigma <= 0:
                raise ConfigError("dl_sigma needs a positive sigma")
            return params, conductivity_law(dl_law(params), sigma), sigma
        raise ConfigError(f"unknown material model {model!r}")

    def material(self):
        """(PiecewiseMaterial, params1, params2, laws, eps_infs)."""
        m = self.raw["material"]
        mu = m.get("mu", [1.0, 1.0])
        if np.isscalar(mu):
            mu = [float(mu), float(mu)]
        params1, law1, sigma1 = self._law_params(m)
        if "region2" in m:
            m2 = dict(m)
            m2.update(m["region2"])
            m2.pop("region2", None)
            m2.pop("mu", None)
            params2, law2, sigma2 = self._law_params(m2)
        else:
            params2, law2, sigma2 = params1, law1, sigma1
        model = m.get("model", "dl")
        if model == "dl_sigma":
            # sigma enters the solver through the piecewise law blocks
            material = PiecewiseMaterial(law1.base, law2.base, mu[0], mu[1],
                                         sigma1=sigma1, sigma2=sigma2)
        else:
            material = PiecewiseMaterial(law1, law2, mu[0], mu[1])
        eps_infs = [params1.eps_inf, params2.eps_inf]
        return material, params1, params2, [law1, law2], eps_infs

    def bundle(self):
        return build_curl_pair(self.yee_grid())


def default_config_dict() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": {"extents": [1.0, 1.0, 1.0], "n_cells": [4, 4, 4],
                 "interface_axis": 3, "interface_index": 2},
        "material": {"model": "mod_dl", "eps0": 1.0,
                     "terms": [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}],
                     "r": 4.0, "mu": [1.0, 1.0]},
        "time": {"t_start": -2.0, "dt": 0.03125, "n_samples": 512},
        "weights": {"rho": [2.0], "nu": []},
        "source": {"kind": "pulse", "t_on": 0.0, "t_off": 2.0, "seed": 7,
                   "divergence_free": True, "amplitude": 1.0},
        "seed": 1234,
    }
