"""The package's result records: immutable, compared and hashed by value,
printed as ``Name(field=value, ...)`` and picklable."""

import pickle

import pytest

from outerkplanar import (
    BoundEntry,
    BoundReport,
    CirculantSpec,
    Cut,
    LowerBoundValue,
    OuterCopyGraph,
    SearchResult,
    bound_report,
    complete_graph,
    exact_maxcut,
    general_lower,
    max_edges,
    outercopy,
)

# each record type with its fields in order and a way to get one
RECORDS = [
    (LowerBoundValue, ("value", "n_used", "k_used", "exact", "kind"),
     lambda: general_lower(10, 4)),
    (BoundEntry, ("name", "kind", "value", "valid", "valid_when", "source"),
     lambda: bound_report(10, 3).entries[0]),
    (BoundReport, ("n", "k", "family", "entries"), lambda: bound_report(10, 3)),
    (SearchResult, ("max_edges", "witness", "nodes_explored", "proven_optimal", "settings"),
     lambda: max_edges(6, 1)),
    (CirculantSpec, ("n", "r"), lambda: CirculantSpec(20, 3)),
    (Cut, ("sides", "value"), lambda: exact_maxcut(CirculantSpec(9, 2))),
    (OuterCopyGraph, ("base", "inside_edges", "outside_edges"),
     lambda: outercopy(complete_graph(5))),
]


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, make):
    record = make()
    assert type(record) is cls and record._fields == fields
    values = [getattr(record, f) for f in fields]
    positional, keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert positional == keyword == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    if cls is SearchResult:  # its settings dict makes it unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(positional) == hash(keyword) == hash(record)
    assert repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")")
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls and restored == record
