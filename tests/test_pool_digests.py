"""tools/check_pool_digests.py checks pooled results against bench/reference/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_pool_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_pool_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_pool_entries_match_their_recorded_digests():
    tool = _load_tool()
    for name in ("analyze", "witness-p3"):
        assert tool.check(name, limit=20) == (20, []), name


def test_a_wrong_result_is_listed_as_a_mismatch(monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool.workloads, "pooled_op", lambda name: lambda coeffs: {"f_p": -1})
    n, bad = tool.check("analyze", limit=3)
    assert n == 3 and [entry[0] for entry in bad] == [0, 1, 2]
    assert tool.main() == 1
