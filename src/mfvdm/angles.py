"""Angle wrapping helpers shared across sampling, alignment and scoring."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_two_pi(angle):
    """Wrap angles to [0, 2*pi).  Scalar in, float out; array in, array out."""
    wrapped = np.mod(angle, TWO_PI)
    # np.mod can round up to the modulus itself for tiny negative inputs
    wrapped = np.where(wrapped == TWO_PI, 0.0, wrapped)
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def wrap_pi(angle):
    """Wrap angles to [-pi, pi).  Scalar in, float out; array in, array out.

    The result is computed in place in one new array; no other temporary of
    that size is made but a boolean mask.
    """
    out = np.add(angle, np.pi, out=np.empty(np.shape(angle)))
    np.mod(out, TWO_PI, out=out)
    out -= np.pi
    np.subtract(out, TWO_PI, out=out, where=out >= np.pi)
    if np.ndim(angle) == 0:
        return float(out)
    return out
