"""scripts/identity_digests.py: the digests of retrieval outputs repeat run to run."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_runs_on_a_small_input_give_the_same_digests():
    spec = importlib.util.spec_from_file_location("identity_digests",
                                                  ROOT / "scripts" / "identity_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    digests = module.digests(["ablation"], 5)
    assert digests == module.digests(["ablation"], 5)
    # strategy x index x mode x call x part
    assert len(digests) == 2 * 2 * 3 * 2 * 2
    assert all(re.fullmatch("[0-9a-f]{16}", value) for value in digests.values())
    # a first search and a repeated one give the same pools and top 3
    for key, value in digests.items():
        assert value == digests[key.replace("/first/", "/again/")]
