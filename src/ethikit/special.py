"""The two special functions the model needs, in numpy: erf and the sigmoid.

``erf`` picks its algorithm from the input's dtype alone:

- float32 uses Eigen's fast float erf (``generic_fast_erf_float``): the
  rational ``x*P(x^2)/Q(x^2)`` on x clamped to +-4, beyond which float32
  erf rounds to +-1. Its largest absolute error is about 4.2e-7.
- float64 ports Cephes ``ndtr.c``: ``x*T(x^2)/U(x^2)`` for |x| <= 1 and
  ``1 - exp(-x^2)*P(|x|)/Q(|x|)`` beyond, with |x| clamped at 6, where
  float64 erf rounds to +-1. It stays within 2 ulp of ``scipy.special.erf``.
"""

from __future__ import annotations

import numpy as np


def _f32(values):
    # 0-d float32 arrays: a Python float operand is converted on every ufunc
    # call, which on the small GELU inputs of a CLS-only layer costs more
    # than the arithmetic.
    return [np.array(v, dtype=np.float32) for v in values]


# Eigen's coefficients, highest power first: numerator (odd in x) and
# denominator (even in x), both as polynomials in x^2.
_ERF32_P = _f32([
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02,
])
_ERF32_Q = _f32([
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
])
_ONE32, _NEG_ONE32, _CLAMP32, _NEG_CLAMP32 = _f32([1.0, -1.0, 4.0, -4.0])

# Cephes ndtr.c: T/U on |x| <= 1, P/Q (erfc) on 1 < |x| < 8. U and Q lead
# with the 1 that Cephes leaves implicit (its p1evl); multiplying by it is
# exact, so the rounding matches.
_ERF64_T = [
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
]
_ERF64_U = [
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
]
_ERFC64_P = [
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
]
_ERFC64_Q = [
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
]
_ERF64_CLAMP = 6.0


def _horner(x: np.ndarray, coeffs) -> np.ndarray:
    """Polynomial in x, highest power first, evaluated in place on one new array."""
    out = x * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _erf_float32(x: np.ndarray) -> np.ndarray:
    x = np.minimum(x, _CLAMP32)
    np.maximum(x, _NEG_CLAMP32, out=x)
    x2 = x * x
    p = _horner(x2, _ERF32_P)
    p *= x
    p /= _horner(x2, _ERF32_Q)
    # Rounding carries the rational up to 2 ulp past 1 between |x| 3.6 and 4.
    np.minimum(p, _ONE32, out=p)
    np.maximum(p, _NEG_ONE32, out=p)
    return p


def _erf_float64(x: np.ndarray) -> np.ndarray:
    ax = np.minimum(np.abs(x), _ERF64_CLAMP)
    z = ax * ax
    inner = x * _horner(z, _ERF64_T) / _horner(z, _ERF64_U)
    erfc = np.exp(-z) * _horner(ax, _ERFC64_P) / _horner(ax, _ERFC64_Q)
    return np.where(ax <= 1.0, inner, np.copysign(1.0 - erfc, x))


def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise error function of a float32 or float64 array, in its dtype."""
    return _erf_float32(x) if x.dtype == np.float32 else _erf_float64(x)


def expit(z) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-z))``, warning-free for every finite z.

    For z below about -709 (float64) ``exp(-z)`` overflows to inf and the
    result is exactly 0, as in ``scipy.special.expit``.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))
