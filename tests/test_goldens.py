import re

import pytest

from goldens import ROOT, check, entries

ENTRIES = entries()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden(entry):
    # CI checks every hash seed with `python tests/goldens.py`
    assert check(entry, entry["seeds"][0]) == ""


def test_digests_are_pinned_once_in_the_manifest():
    # a digest copied into CI or a test is a second place to update when
    # an output moves, and one that can drift from the manifest
    for path in [ROOT / ".github" / "workflows" / "ci.yml",
                 *(ROOT / "tests").glob("*.py")]:
        assert not re.search(r"\b[0-9a-f]{64}\b", path.read_text()), path
    assert len({e["name"] for e in ENTRIES}) == len(ENTRIES)
    for e in ENTRIES:
        assert re.fullmatch(r"[0-9a-f]{64}", e["sha256"]), e["name"]
        assert e["seeds"] and all(s is None or type(s) is int
                                  for s in e["seeds"]), e["name"]
        assert e["seconds"] > 0 and e["reason"].strip(), e["name"]
