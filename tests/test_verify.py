"""Every invariant check of `duelmem verify`, in full mode."""

from __future__ import annotations

import pytest

from duelmem.verify import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check_passes(check):
    ok, detail = check(quick=False)
    assert ok, detail
