"""The mutant table of `tools/mutants.py` follows the code: each mutant's
old text occurs exactly once in its file, so applying it is unambiguous.
The mutation runs themselves are not part of the suite."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("path, old, new, why", mutants.MUTANTS,
                         ids=[re.sub(r"\W+", "-", why)[:40] for *_, why in mutants.MUTANTS])
def test_old_text_occurs_once(path, old, new, why):
    assert new != old
    assert (ROOT / path).read_text().count(old) == 1
