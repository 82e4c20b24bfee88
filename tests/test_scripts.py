"""The example scripts in scripts/ run end to end on tiny arguments."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("alpha, columns", [("1.5", 7), ("1.0", 5)])
def test_symbol_sweep(monkeypatch, tmp_path, alpha, columns):
    out = tmp_path / "sweep.csv"
    _run(monkeypatch, "symbol_sweep.py", "--alpha", alpha, "--points", "21",
         "--out", str(out))
    rows = _rows(out)
    assert rows[0][0] == "xi" and len(rows[0]) == columns
    assert len(rows) == 1 + 20                     # xi = 0 is dropped


def test_burgers_decay(monkeypatch, tmp_path):
    out = tmp_path / "burgers.csv"
    _run(monkeypatch, "burgers_decay.py", "--n", "32", "--T", "0.125",
         "--dt", "0.03125", "--out", str(out))
    rows = _rows(out)
    assert rows[0] == ["t", "sup", "energy", "mean"]
    assert len(rows) == 1 + 5
    sup = [float(r[1]) for r in rows[1:]]
    assert sup[-1] < sup[0]                        # the dissipation wins


def test_feynman_kac_vs_spectral(monkeypatch, tmp_path):
    out = tmp_path / "fk.csv"
    _run(monkeypatch, "feynman_kac_vs_spectral.py", "--paths", "2000",
         "--probes", "2", "--out", str(out))
    rows = _rows(out)
    assert rows[0] == ["x", "spectral", "monte_carlo", "std_error", "z"]
    assert len(rows) == 1 + 2
    assert all(float(r[3]) > 0 for r in rows[1:])
