"""Shared helpers used by several test modules: counting, and the
environment of a fresh Python process that imports the package from
`src/`."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def src_env():
    """os.environ with `src/` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _moebius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt(k, n):
    """Dimension of the degree-n component of the free Lie algebra on k
    letters: (1/n) * sum over d | n of moebius(d) * k^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(d) * k ** (n // d)
    assert total % n == 0
    return total // n
