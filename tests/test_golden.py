"""The covered outputs keep the bytes recorded in tests/golden.json (see tests/golden.py)."""

import json

import golden


def test_outputs_match_the_golden_manifest():
    # a digest that moved is a changed output: regenerate with `python tests/golden.py --write`
    # only when the change is meant, and name each moved digest where the change is recorded
    assert golden.manifest() == json.loads(golden.MANIFEST.read_text())
