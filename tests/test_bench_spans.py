"""The traced benchmark run wraps package names that must keep existing.

`bench/spans.py` resolves each `BOUNDARIES` and `COUNTED` entry on the
package when a traced run starts (`bench/run.py --trace 1`), and reads
`FamilyWindow._dibond_cache` for its cache counters. A helper merged away
or renamed in the package would break that run, so every entry is
resolved here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import dicuts
from dicuts import finite_dibonds_in_window, get_family, window
from dicuts.enumeration import DEFAULT_CAP

_SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _name in spans.BOUNDARIES + spans.COUNTED]
)
def test_traced_name_resolves(module, attr):
    target = getattr(dicuts, module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_window_dibond_cache_is_read_by_the_tracer():
    w = window(get_family("zigzag_d1"), 2)
    assert w._dibond_cache == {}
    bonds = finite_dibonds_in_window(w)
    assert w._dibond_cache[DEFAULT_CAP] == bonds


def test_tracer_installs_and_restores_the_package():
    original = dicuts.solver.optimal_pair
    tracer = spans.Tracer(dicuts)
    tracer.install()
    try:
        assert dicuts.solver.optimal_pair is not original
    finally:
        tracer.uninstall()
    assert dicuts.solver.optimal_pair is original
