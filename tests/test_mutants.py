import re

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_to_todays_code():
    """Each mutant of ``tests/mutants.py`` changes its file's text, its old
    text occurs there exactly once, its name is its own, and each test it
    names is defined in the file named. The catalogue itself runs outside
    tier-1: ``python tests/mutants.py``."""
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)
    for name, file, old, new, tests in MUTANTS:
        assert old != new and tests, name
        assert (ROOT / file).read_text().count(old) == 1, name
        for test in tests:
            path, function = re.fullmatch(r"(.+)::(\w+)(\[.*\])?", test).group(1, 2)
            assert f"\ndef {function}(" in (ROOT / path).read_text(), (name, test)
