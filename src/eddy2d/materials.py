"""Material laws: electrical conductivity and magnetic reluctivity.

Two reluctivity laws are supported: a constant ("linear") law and the
exponential saturation law nu(B^2) = k1 + k2*exp(k3*B^2), which is smooth,
monotone nondecreasing in B^2 and keeps the assembled stiffness positive
semidefinite. Reluctivity is parameterized by B^2 rather than |B| so that
assembly avoids a square root and the Newton chain rule stays simple.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MU0 = 4.0e-7 * np.pi
NU0 = 1.0 / MU0  # reluctivity of free space, m/H


@dataclass(frozen=True)
class MaterialModel:
    """Conductivity (S/m) plus a reluctivity law.

    law "linear": nu(b2) = nu_const (requires nu_const > 0).
    law "brauer": nu(b2) = k1 + k2*exp(k3*b2) (k1 > 0, k2 >= 0, k3 >= 0).
    """

    kappa: float
    law: str = "linear"
    nu_const: float = NU0
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError(f"conductivity must be >= 0, got {self.kappa}")
        if self.law == "linear":
            if self.nu_const <= 0:
                raise ValueError(f"linear reluctivity must be > 0, got {self.nu_const}")
        elif self.law == "brauer":
            if self.k1 <= 0:
                raise ValueError(f"brauer k1 must be > 0, got {self.k1}")
            if self.k2 < 0 or self.k3 < 0:
                raise ValueError("brauer k2 and k3 must be >= 0")
        else:
            raise ValueError(f"unknown reluctivity law {self.law!r}")

    @staticmethod
    def linear(kappa: float, nu: float) -> "MaterialModel":
        return MaterialModel(kappa=kappa, law="linear", nu_const=nu)

    @staticmethod
    def brauer(kappa: float, k1: float, k2: float, k3: float) -> "MaterialModel":
        return MaterialModel(kappa=kappa, law="brauer", k1=k1, k2=k2, k3=k3)

    @property
    def coefficients(self) -> tuple[float, float, float]:
        """(k1, k2, k3) of nu(b2) = k1 + k2*exp(k3*b2), the one form in which
        assembly and the CFL heuristic evaluate either law: a linear law is
        (nu_const, 0, 0), and so is a brauer law with k2 = 0 (k1, 0, 0)."""
        if self.law == "linear":
            return self.nu_const, 0.0, 0.0
        return self.k1, self.k2, self.k3 if self.k2 else 0.0

    @property
    def is_nonlinear(self) -> bool:
        return self.law == "brauer" and self.k2 > 0 and self.k3 > 0

