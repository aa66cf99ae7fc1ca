"""The freeing rule every hash-consed table relies on."""
from pmsem.hashcons import record


class Value:
    """Any object a weak reference can hold."""


def test_a_dead_value_leaves_a_newer_entry_in_place():
    """A lookup can find an entry whose value is dead but not yet called
    back, and record a newer value under its key; the old entry's call
    back must not take the newer entry with it."""
    table = {}
    old, new = Value(), Value()
    record(table, "key", old)
    stale = table["key"]
    record(table, "key", new)
    del old
    assert stale() is None
    assert table["key"]() is new
    del new
    assert table == {}
