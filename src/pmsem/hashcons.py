"""Hash-consing (Filliatre and Conchon 2006): one live object per value.

A hash-consed class keeps a table, a dict from a key to a weak reference
to the live object with that key, and its __new__ returns that object or
builds and records one.  So == and hash are the object's own, in C.
"""
import weakref


class HashConsed:
    """Base of the hash-consed classes, whose fields are their __match_args__."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild a value through __new__
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class _Entry(weakref.ref):
    __slots__ = ("table", "key")


def _forget(entry: _Entry) -> None:
    # the value died; a newer value may hold its key already
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


def record(table: dict, key, value) -> None:
    """Make value the live value of key in table until it dies."""
    entry = table[key] = _Entry(value, _forget)
    entry.table, entry.key = table, key
