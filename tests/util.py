"""Shared helpers for the test suite."""

import importlib
import math
import pkgutil

import numpy as np

import crowdloss
from crowdloss.geometry import BBox


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided exact sign test: P(X >= wins) under fair coin, ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def random_box(rng, lo=0.0, hi=100.0, min_size=1.0, max_size=40.0) -> BBox:
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    x1 = rng.uniform(lo, hi - w)
    y1 = rng.uniform(lo, hi - h)
    return BBox(x1, y1, x1 + w, y1 + h)


def jittered_box(rng, base: BBox, sigma: float) -> BBox:
    cx = (base.x1 + base.x2) / 2.0 + rng.normal(0.0, sigma * base.width)
    cy = (base.y1 + base.y2) / 2.0 + rng.normal(0.0, sigma * base.height)
    w = base.width * math.exp(rng.normal(0.0, sigma))
    h = base.height * math.exp(rng.normal(0.0, sigma))
    return BBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def overlapping_pair(rng, extent=100.0):
    """Two ground truths with a guaranteed positive IoU."""
    w = rng.uniform(8.0, 16.0)
    h = rng.uniform(18.0, 30.0)
    x1 = rng.uniform(5.0, extent - 2.5 * w - 5.0)
    y1 = rng.uniform(5.0, extent - h - 5.0)
    g0 = BBox(x1, y1, x1 + w, y1 + h)
    dx = rng.uniform(0.3, 0.8) * w
    dy = rng.uniform(-0.2, 0.2) * h
    g1 = BBox(g0.x1 + dx, g0.y1 + dy, g0.x2 + dx, g0.y2 + dy)
    return g0, g1


def counted(fn, calls, name):
    """``fn`` wrapped to add one to ``calls[name]`` on every call."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def patch_everywhere(monkeypatch, name, value):
    """Set ``name`` to ``value`` in every ``crowdloss`` module that binds it."""
    for info in pkgutil.iter_modules(crowdloss.__path__):
        if info.name == "__main__":
            continue
        # by module path: the package attribute crowdloss.couloss is the function
        module = importlib.import_module(f"crowdloss.{info.name}")
        if hasattr(module, name):
            monkeypatch.setattr(module, name, value)
