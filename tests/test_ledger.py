import json

from ledger import LEDGER, flatten, ledger


def test_the_ledger_holds_todays_counts():
    """Every count of ``tests/ledger.json`` recomputed: a count that moves,
    or a key that comes or goes, is listed as ``key: ledger -> now``.
    ``python tests/ledger.py`` rewrites the ledger."""
    want = flatten(json.loads(LEDGER.read_text()))
    got = flatten(ledger())
    diff = [
        f"{key}: {want.get(key)} -> {got.get(key)}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]
    assert not diff, "counts moved from the ledger:\n" + "\n".join(diff)
