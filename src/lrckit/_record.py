"""Value semantics for the package's small records.

A record's fields are its instance attributes, in the order its own
`__init__` sets them.  `Record` compares and prints by them; `FrozenRecord`
also hashes by them and refuses assignment, so its `__init__` stores its
fields with `vars(self).update(...)`.
"""


class Record:
    """== between records of one class with equal fields, and a repr
    `Name(field=value, ...)`.  Unhashable, as a mutable record must be."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are fixed once `__init__` has stored them."""

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
