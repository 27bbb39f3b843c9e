"""The package's public surface: its export list and the README's example."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import minmax_lab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    names = minmax_lab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(minmax_lab, name)] == []
    namespace = {}
    exec("from minmax_lab import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_python_api_example_prints_what_it_says():
    block = re.search(r"## Python API\n\n```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    value, params, verdict, slope = out.getvalue().splitlines()
    assert float(value) == pytest.approx(1.0, rel=1e-12)
    assert ast.literal_eval(params) == pytest.approx((0.9, 0.0), abs=0.005)
    assert verdict == "Verdict.REFUTED"
    assert float(slope) == pytest.approx(2.0, abs=0.3)
