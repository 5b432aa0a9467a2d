"""Fit the polynomial behind the float32 GELU in `hiremlp.tensor`.

    python3 scripts/fit_gelu.py

The float32 GELU is x Phi(x) = x / (1 + exp(-x P(x^2))), so P(x^2) must be
logit(Phi(x)) / x. This script fits P, of degree 6 in x^2, to that target
on (0, 6]. The target is even in x, so the fit covers both signs. It fits
in the scaled variable s = x^2 / 36, on which the powers are well
conditioned, and weights each point by how far an error in P moves the
GELU output there: d GELU / d P = x^2 Phi (1 - Phi). Lawson's iteration
then reweights the least-squares fit toward the minimax one. The script
prints the coefficients of P in x^2, highest power first, and the largest
float64 GELU error on [-15, 15] they give against math.erfc.
"""

from __future__ import annotations

import math

import numpy as np

DEGREE = 6
X_MAX = 6.0
POINTS = 20_000
LAWSON_STEPS = 200


def _upper_tail(x: np.ndarray) -> np.ndarray:
    """1 - Phi(x), accurate in both tails."""
    return np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x.tolist()])


def fit() -> tuple[float, ...]:
    x = X_MAX * (np.arange(1, POINTS + 1) / POINTS)
    q = _upper_tail(x)
    target = (np.log1p(-q) - np.log(q)) / x  # logit(Phi) from 1 - Phi: no cancellation
    sensitivity = x * x * q * (1.0 - q)
    s = x * x / (X_MAX * X_MAX)
    basis = np.vander(s, DEGREE + 1)  # columns s^6 ... s^0
    lawson = np.full(x.size, 1.0 / x.size)
    for _ in range(LAWSON_STEPS):
        w = sensitivity * np.sqrt(lawson)
        a, *_ = np.linalg.lstsq(basis * w[:, None], target * w, rcond=None)
        err = np.abs(basis @ a - target) * sensitivity
        lawson *= err
        lawson /= lawson.sum()
    scale = (X_MAX * X_MAX) ** np.arange(DEGREE, -1, -1)
    return tuple(float(c) for c in a / scale)


def gelu_error(coeffs: tuple[float, ...]) -> float:
    """Largest float64 |x / (1 + exp(-x P(x^2))) - x Phi(x)| on a grid of [-15, 15]."""
    x = np.linspace(-15.0, 15.0, 300_001)
    p = np.polyval(coeffs, x * x)
    exact = x * (1.0 - _upper_tail(x))
    with np.errstate(over="ignore"):  # exp(-x P) is inf far left, where x / inf = -0
        return float(np.abs(x / (1.0 + np.exp(-x * p)) - exact).max())


def main() -> None:
    coeffs = fit()
    print("(" + ", ".join(f"{c:.7e}" for c in coeffs) + ")")
    print(f"max float64 GELU error on [-15, 15]: {gelu_error(coeffs):.2e}")


if __name__ == "__main__":
    main()
