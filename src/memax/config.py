"""Run configuration: schema-validated JSON, with builders for the lab objects.

One structured-text format with an explicit schema version; unknown keys are
rejected with their path, every tolerance has a recorded default, and the
manifest carries the config hash so batteries can reference configs by hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .materials import PiecewiseMaterial, ScalarLaw
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
        raise ConfigError(f"{path or 'the config'} must be an object, got {data!r}")
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(schema[key], dict):
            _check_keys(value, schema[key], here)


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _triple(test):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(test, v))


def _terms(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(
        isinstance(t, dict) and all(_real(t.get(k)) for k in ("alpha", "gamma", "omega0"))
        for t in v)


_TERMS = "a non-empty list of terms with numeric alpha, gamma and omega0"


def _positive(x) -> bool:
    return _real(x) and x > 0


def _nonnegative(x) -> bool:
    return _real(x) and x >= 0


def _reals(v) -> bool:
    return isinstance(v, list) and all(map(_real, v))


def _mu(v) -> bool:
    return _positive(v) or (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_positive, v)))


# (key path, required, test, what the value must be)
_VALUE_RULES = (
    ("grid.extents", True, _triple(_positive), "a list of 3 positive numbers"),
    ("grid.n_cells", True, _triple(lambda x: _integer(x) and x >= 2), "a list of 3 integers >= 2"),
    ("grid.interface_axis", False, lambda x: _integer(x) and x in (1, 2, 3), "1, 2 or 3"),
    ("grid.interface_index", False, _integer, "an integer"),
    ("time.t_start", True, _real, "a finite number"),
    ("time.dt", True, _positive, "a positive number"),
    ("time.n_samples", True, lambda x: _integer(x) and x >= 2, "an integer >= 2"),
    ("material.eps0", False, _positive, "a positive number"),
    ("material.region2.eps0", False, _positive, "a positive number"),
    ("material.mu", False, _mu, "a positive number or a list of 2 positive numbers"),
    ("material.terms", False, _terms, _TERMS),
    ("material.region2.terms", False, _terms, _TERMS),
    ("material.r", False, _positive, "a positive number"),
    ("material.region2.r", False, _positive, "a positive number"),
    ("material.sigma", False, _nonnegative, "a finite number >= 0"),
    ("material.region2.sigma", False, _nonnegative, "a finite number >= 0"),
    ("source.t_on", False, _real, "a finite number"),
    ("source.t_off", False, _real, "a finite number"),
    ("source.amplitude", False, _real, "a finite number"),
    ("source.seed", False, _integer, "an integer"),
    ("source.divergence_free", False, lambda x: isinstance(x, bool), "true or false"),
    ("weights.rho", False, _reals, "a list of finite numbers"),
    ("weights.nu", False, _reals, "a list of finite numbers"),
    ("nonlinearity.k", False, lambda x: _integer(x) and x >= 2, "an integer >= 2"),
    ("nonlinearity.tau", False, _positive, "a positive number"),
    ("nonlinearity.kernel.alpha", False, _positive, "a positive number"),
    ("nonlinearity.kernel.gamma", False, _positive, "a positive number"),
    ("nonlinearity.kernel.omega0", False, _nonnegative, "a finite number >= 0"),
    ("nonlinearity.kernel.scale", False, _real, "a finite number"),
    *((f"tolerances.{key}", False, _positive, "a positive number")
      for key in TOLERANCE_DEFAULTS if key != "max_iter"),
    ("tolerances.max_iter", False, lambda x: _integer(x) and x >= 1, "an integer >= 1"),
    ("seed", False, _integer, "an integer"),
)


def _region2(material: dict) -> dict:
    """Region 2's law section: region 1's keys under its own, without mu.
    sigma is inherited only by a dl_sigma region 2."""
    own = material["region2"]
    law = {k: v for k, v in material.items() if k not in ("region2", "mu")}
    law.update(own)
    if "sigma" not in own and law.get("model", "dl") != "dl_sigma":
        law.pop("sigma", None)
    return law


def _check_values(raw: dict):
    for path, required, test, what in _VALUE_RULES:
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section.get(name) if isinstance(section, dict) else None
        if not isinstance(section, dict) or key not in section:
            if required:
                raise ConfigError(f"missing config key: {path}")
            continue
        if not test(section[key]):
            raise ConfigError(f"{path} must be {what}, got {section[key]!r}")
    material = raw["material"]
    laws = [("material", material)]
    if isinstance(material, dict) and isinstance(material.get("region2"), dict):
        laws.append(("material.region2", _region2(material)))
    for path, law in laws:
        if isinstance(law, dict) and law.get("model", "dl") == "mod_dl" and "r" not in law:
            raise ConfigError(f"missing config key: {path}.r (model mod_dl needs r)")
    kernel = raw.get("nonlinearity", {}).get("kernel")
    for key in ("alpha", "gamma", "omega0"):
        if kernel is not None and key not in kernel:
            raise ConfigError(f"missing config key: nonlinearity.kernel.{key} "
                              "(a kernel needs alpha, gamma and omega0)")
    source = raw.get("source", {})
    t_on, t_off = source.get("t_on", 0.0), source.get("t_off", 2.0)
    if t_off <= t_on:
        raise ConfigError(f"source.t_off must be after source.t_on, got {t_off!r} <= {t_on!r}")
    grid = raw["grid"]
    if "interface_index" in grid:
        n = grid["n_cells"][grid.get("interface_axis", 3) - 1]
        if not 0 < grid["interface_index"] < n:
            raise ConfigError(f"grid.interface_index must be strictly inside the {n} cells along "
                              f"the interface axis (1..{n - 1}), got {grid['interface_index']!r}")


@dataclass
class RunConfig:
    """Validated configuration plus the raw dict it came from."""

    raw: dict

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        """The config stored at path; an unreadable file, text that is not
        UTF-8 or bad JSON raises ConfigError."""
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: "
                              f"0x{exc.object[exc.start]:02x})") from exc
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
        _check_values(raw)
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

    def _law(self, section: dict):
        """(law without its conductivity, sigma) of one region's law section."""
        model = section.get("model", "dl")
        sigma = float(section.get("sigma", 0.0))
        if model not in ("dl", "mod_dl", "dl_sigma"):
            raise ConfigError(f"unknown material model {model!r}")
        if model != "dl_sigma" and sigma != 0.0:
            raise ConfigError("sigma requires model = dl_sigma")
        if model == "dl_sigma" and sigma <= 0:
            raise ConfigError("dl_sigma needs a positive sigma")
        terms = [(float(t["alpha"]), float(t["gamma"]), float(t["omega0"]))
                 for t in section.get("terms", [{"alpha": 1.0, "gamma": 1.0, "omega0": 2.0}])]
        r = float(section["r"]) if model == "mod_dl" else None
        return ScalarLaw(float(section.get("eps0", 1.0)), terms, r), sigma

    def material(self):
        """(PiecewiseMaterial, law1, law2, laws, eps_infs): law1 and law2 are
        the material's region laws without their conductivity, laws are
        material.eps_laws(), each region's law with its sigma."""
        m = self.raw["material"]
        mu = m.get("mu", [1.0, 1.0])
        if np.isscalar(mu):
            mu = [float(mu), float(mu)]
        law1, sigma1 = self._law(m)
        law2, sigma2 = self._law(_region2(m)) if "region2" in m else (law1, sigma1)
        material = PiecewiseMaterial(law1, law2, mu[0], mu[1], sigma1=sigma1, sigma2=sigma2)
        return material, law1, law2, list(material.eps_laws()), [law1.eps_inf, law2.eps_inf]

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
