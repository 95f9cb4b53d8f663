"""High-precision definitions shared by ``chebyshev.py`` and ``accuracy.py``.

Run nothing; import from a script under ``bench/``.  Every function takes
and returns mpmath numbers at the caller's working precision
(``mpmath.mp.dps``), and none reads the package, so each is an independent
route to the numbers the package computes in double precision.

* ``lam(x)`` is Lambda(x) = x^2 2F2(1, 1; 3/2, 2; -x^2), the even part of the
  log moment: E ln|mu + sigma Z| = ln sigma - (gamma + ln 2)/2 + Lambda(y)
  for Z standard normal and y = mu / (sigma sqrt 2).  Lambda' = 2F.
* ``dawson(x)`` is Dawson's integral F(x) = x 1F1(1; 3/2; -x^2), which stays
  accurate for large x, where (sqrt(pi)/2) e^{-x^2} erfi(x) does not.
* ``lightcone_pair`` and ``logabs_pair`` are the pair integrals of two
  normalized bumps with combined width b, time separation delta and spatial
  separation R, in s = sqrt(b/2), x = s delta and h = s R:

      LIGHTCONE = erfc(h - x)/2 - erfc(h + x)/2
                  - (x / sqrt(pi)) e^{-(x-h)^2} (1 - e^{-4xh}) / (4xh)
      LOGABS    = -ln(2b) - gamma + Lambda(x - h) + Lambda(x + h)
                  + [F(x + h) - F(x - h)] / (2h)

  with the limits h -> 0 (the quotient is F'(x) = 1 - 2xF(x), the light-cone
  ratio 1) taken exactly.
* ``digits(b)`` is a working precision for the pair at b: 40 digits plus
  |log10 s|, so that erfc(s(R -+ delta)) keeps the s delta it differs from 1
  by when s is tiny.
"""

from __future__ import annotations

import math

import mpmath as mp


def lam(x):
    return x * x * mp.hyp2f2(1, 1, 1.5, 2, -x * x)


def dawson(x):
    return x * mp.hyp1f1(1, 1.5, -x * x)


def digits(b):
    return 40 + math.ceil(abs(math.log10(math.sqrt(0.5 * b))))


def _xh(b, delta, R):
    s = mp.sqrt(mp.mpf(b) / 2)
    return s * mp.mpf(delta), s * mp.mpf(R)


def lightcone_pair(b, delta, R):
    x, h = _xh(b, delta, R)
    step = (mp.erfc(h - x) - mp.erfc(h + x)) / 2
    ratio = 1 if x * h == 0 else -mp.expm1(-4 * x * h) / (4 * x * h)
    return step - x / mp.sqrt(mp.pi) * mp.exp(-((x - h) ** 2)) * ratio


def logabs_pair(b, delta, R):
    x, h = _xh(b, delta, R)
    quotient = 1 - 2 * x * dawson(x) if h == 0 else (dawson(x + h) - dawson(x - h)) / (2 * h)
    return -mp.log(2 * mp.mpf(b)) - mp.euler + lam(x - h) + lam(x + h) + quotient
