"""Types shared by the workload modules and the worker."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    """One timed operation: ``fn(round_index)`` calls into levylab and
    returns what the workload's checks need.  ``known_fault`` is the name
    of the check that a known program fault makes fail on this operation
    today, if any: that check failing counts the operation in ``failed``
    and does not make the run incorrect."""

    name: str
    fn: Callable[[int], object]
    known_fault: str = ""


@dataclass(frozen=True)
class Finding:
    op: str
    ok: bool
    detail: str
    check: str = ""


@dataclass(frozen=True)
class Workload:
    ops: tuple
    check: Callable[[dict], list]       # {op name: output} -> [Finding]


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (seed, input family), so adding an input
    family does not shift the others."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def rel_l2(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))
