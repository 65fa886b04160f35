"""The shared piece of symmon's record types.

Every value type (RookElement, FqMatrix, Weight, RootSystem, ...) is a
tuple of its fields in declared order, so equality, hashing and order run
in C and a record equals the plain tuple of its fields.  Records are values,
not sequences: each sets its `+` and `*` (and the reflected `*`) to
`no_tuple_arithmetic`, so tuple concatenation and repetition raise
TypeError, unless the type defines its own arithmetic (Weight).
"""


def no_tuple_arithmetic(self, other):
    return NotImplemented
