from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import duelmem

MODULES = [
    f"duelmem.{info.name}"
    for info in pkgutil.iter_modules(duelmem.__path__)
    if info.name != "__main__"
]


def test_package_root_loads_no_submodule():
    # A fresh interpreter, so modules other tests imported do not count.
    src = os.path.dirname(os.path.dirname(duelmem.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, duelmem; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'duelmem'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "['duelmem']"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []
