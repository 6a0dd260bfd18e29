"""The exit rule of tools/fidelity.py's compare, on small hand-made digest dicts."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fidelity.py"
spec = importlib.util.spec_from_file_location("fidelity", TOOL)
fidelity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fidelity)

A, B = "a" * 64, "b" * 64
BASE = {"cli/period": A, "closed_form/kink_array #0 g": B, "sweep/00001": "NoConvergence", "oracle_sweep/000": A}
EXTRA = {**BASE, "sweep/00002": A}


def compare(base, change):
    return fidelity.compare(base, change, {}, {})


def test_identical_digests_pass(capsys):
    assert compare(BASE, dict(BASE)) == 0
    out = capsys.readouterr().out
    assert "DIFFER" not in out and "0 keys on one side only" in out


@pytest.mark.parametrize("base, change", [("NoConvergence", "DomainError"), ("DomainError", A),
                                          (A, "DomainError"), (A, B)],
                         ids=["refusal to refusal", "refusal to answer", "answer to refusal", "answer to answer"])
def test_a_differing_digest_fails(capsys, base, change):
    assert compare({**BASE, "sweep/00002": base}, {**BASE, "sweep/00002": change}) == 1
    assert f"DIFFER: sweep/00002: {base[:22]} -> {change[:22]}" in capsys.readouterr().out


@pytest.mark.parametrize("base, change", [(EXTRA, BASE), (BASE, EXTRA)], ids=["base only", "change only"])
def test_a_key_on_one_side_only_is_counted_and_passes(capsys, base, change):
    assert compare(base, change) == 0
    out = capsys.readouterr().out
    assert "1 keys on one side only" in out and "DIFFER" not in out
