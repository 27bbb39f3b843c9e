"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/tracing.py patches package functions by (module, attribute) and
counts a name it cannot find in `trace.missing_names` instead of failing.
This test makes such a name fail at test time.  It only reads perfbench/.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    tracing = runpy.run_path(str(TRACING))
    missing = [
        f"{module_name}.{attr}"
        for _, sites in tracing["PATCHES"]
        for module_name, attr in sites
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    missing += [
        f"{module_name}.{attr}.cache_info"
        for module_name, attr in tracing["DRAW_CACHES"]
        if not hasattr(getattr(importlib.import_module(module_name), attr, None), "cache_info")
    ]
    table = importlib.import_module("minmax_lab.cli")._COMMANDS
    missing += [f"minmax_lab.cli._COMMANDS[{c!r}]" for c in tracing["COMMANDS"] if c not in table]
    assert missing == []
