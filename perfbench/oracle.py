"""Independent QoI oracle: the benchmark's own numpy formulas.

Every answer the program returns is checked here against ground truth
computed from the benchmark's private copy of the generated fields.
Nothing in this module calls into ``repro``: the formulas restate the
paper's Eq. (1)-(6) and the S3D molar products directly, so a fault in
the program's expression trees cannot hide behind itself.

The check per QoI is the paper's contract::

    max|QoI(rec) - QoI(truth)|  <=  reported estimate  <=  tol * range

where ``range`` is the QoI's value range on the original data.  The left
inequality allows a rounding slack of a few ulps of the QoI's magnitude,
because the program and this module evaluate the same formula in a
different floating-point order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

R_GAS = 287.1
GAMMA = 1.4
MACH_EXPONENT = 3.5
MU_REF = 1.716e-5
T_REF = 273.15
SUTHERLAND_S = 110.4

#: Rounding slack of the error check, in ulps of the QoI's magnitude.
ULP_SLACK = 16


def vtot(vx, vy, vz):
    """Eq. (1): total velocity."""
    return np.sqrt(vx * vx + vy * vy + vz * vz)


def temperature(p, d):
    """Eq. (2): T = P / (D R)."""
    return p / (d * R_GAS)


def sound_speed(p, d):
    """Eq. (3): C = sqrt(gamma R T)."""
    return np.sqrt(GAMMA * R_GAS * temperature(p, d))


def mach(vx, vy, vz, p, d):
    """Eq. (4): Mach = Vtotal / C."""
    return vtot(vx, vy, vz) / sound_speed(p, d)


def total_pressure(vx, vy, vz, p, d):
    """Eq. (5): PT = P (1 + gamma/2 Mach^2)^mi."""
    m = mach(vx, vy, vz, p, d)
    return p * (1.0 + 0.5 * GAMMA * m * m) ** MACH_EXPONENT


def viscosity(p, d):
    """Eq. (6): Sutherland's law."""
    t = temperature(p, d)
    return MU_REF * (t / T_REF) ** 1.5 * (T_REF + SUTHERLAND_S) / (t + SUTHERLAND_S)


def product(*xs):
    """S3D molar-concentration product."""
    out = xs[0]
    for x in xs[1:]:
        out = out * x
    return out


FORMULAS = {
    "vtot": vtot,
    "temperature": temperature,
    "sound_speed": sound_speed,
    "mach": mach,
    "total_pressure": total_pressure,
    "viscosity": viscosity,
    "product": product,
}


@dataclass(frozen=True)
class QoISpec:
    """One QoI as the benchmark knows it: a formula over named fields."""

    name: str
    formula: str
    fields: tuple

    def value(self, fields: dict) -> np.ndarray:
        return FORMULAS[self.formula](*(np.asarray(fields[f], dtype=np.float64) for f in self.fields))


class Oracle:
    """Ground truth for a set of QoIs over one copy of the fields."""

    def __init__(self, fields: dict, specs):
        self.specs = {s.name: s for s in specs}
        self._truth = {}
        self.ranges = {}
        for spec in self.specs.values():
            truth = spec.value(fields)
            self._truth[spec.name] = truth
            r = float(np.max(truth) - np.min(truth))
            self.ranges[spec.name] = r if r > 0 else 1.0

    def check(self, name: str, recon: dict, estimate: float, tol: float) -> str | None:
        """None when the answer holds; otherwise a one-line reason."""
        truth = self._truth[name]
        value = self.specs[name].value(recon)
        if value.shape != truth.shape:
            return f"{name}: shape {value.shape} != {truth.shape}"
        actual = float(np.max(np.abs(value - truth)))
        slack = ULP_SLACK * np.finfo(np.float64).eps * float(np.max(np.abs(truth)))
        bound = tol * self.ranges[name]
        if not np.isfinite(actual) or actual > estimate + slack:
            return f"{name}: actual error {actual:.3e} > reported {estimate:.3e}"
        if estimate > bound:
            return f"{name}: reported {estimate:.3e} > tol*range {bound:.3e}"
        return None
