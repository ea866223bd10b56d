"""Every invariant check of `duelmem verify`, in full mode, and the CLI's
exit codes around them."""

from __future__ import annotations

import time

import pytest

from duelmem import verify
from duelmem.cli import CHECK_FAILURE, main
from duelmem.verify import CHECKS

# Wall-time bounds in seconds, on a check alone or a group of checks together.
BOUNDS = (
    ({"balanced_oracle_optimum", "balanced_lower_bound", "empirical_bound_dominates"}, 30.0),
    ({"duel_incremental_matches_naive"}, 10.0),
)
_seconds: dict[str, float] = {}


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check_passes(name, check):
    t0 = time.perf_counter()
    ok, detail = check(quick=False)
    _seconds[name] = time.perf_counter() - t0
    assert ok, detail
    for group, bound in BOUNDS:
        if name in group:
            # Once the whole group has run, this is its total.
            spent = sum(_seconds.get(n, 0.0) for n in group)
            assert spent < bound, f"{sorted(group)} took {spent:.1f} s"


def _verdicts(out: str) -> list[tuple[str, str]]:
    return [tuple(line.split(":")[0].split()) for line in out.splitlines()]


def test_cli_quick_pass_prints_one_line_per_check(capsys):
    assert main(["verify", "--quick"]) == 0
    assert _verdicts(capsys.readouterr().out) == [("PASS", name) for name, _ in CHECKS]


def test_cli_failed_check_exits_with_check_failure(monkeypatch, capsys):
    checks = list(CHECKS)
    failing = checks[4][0]
    checks[4] = (failing, lambda quick: (False, "injected"))
    monkeypatch.setattr(verify, "CHECKS", checks)
    assert main(["verify", "--quick"]) == CHECK_FAILURE
    expected = [("FAIL" if name == failing else "PASS", name) for name, _ in checks]
    assert _verdicts(capsys.readouterr().out) == expected
