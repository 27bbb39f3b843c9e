import importlib
import textwrap
from pathlib import Path

import pytest
from hypothesis import settings

# Tier-1 runs the same hypothesis examples every time; pass
# --hypothesis-profile=stress to draw fresh random ones.
settings.register_profile("repeatable", derandomize=True)
settings.register_profile("stress", derandomize=False)


def pytest_configure(config):
    if config.getoption("--hypothesis-profile") is None:
        settings.load_profile("repeatable")


@pytest.fixture
def write_config(tmp_path):
    """Write a config file under the test's tmp dir and return its path.

    Each part is dedented on its own, so differently indented fragments can
    be combined without creating INI continuation lines.
    """

    def _write(*parts: str, name: str = "run.cfg") -> Path:
        path = tmp_path / name
        path.write_text("\n".join(textwrap.dedent(p) for p in parts))
        return path

    return _write


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "out"


@pytest.fixture
def risk_calls(monkeypatch):
    """Thetas of every risk() call made through the risk module's global name."""
    module = importlib.import_module("minmax_lab.risk")
    inner = module.risk
    thetas = []

    def counting(model, est, loss, theta, method):
        thetas.append(theta)
        return inner(model, est, loss, theta, method)

    monkeypatch.setattr(module, "risk", counting)
    return thetas
