import pytest

from checked import narrowing, rangealg, reflectlayout


@pytest.fixture
def registry():
    """Lets a test register types, records and spanable classes; returns the
    ``restore`` that puts the registries and every type's rows back exactly
    as they were.  It runs again when the test ends, whatever the test did."""
    tables = [(table, dict(table))
              for table in (narrowing._TYPES, narrowing._MATRIX, reflectlayout._RECORDS)]
    rows = [(row, dict(row))
            for t in narrowing._TYPES.values() for row in (t.to, t.checks, t.plans)]
    spanable = rangealg._SPANABLE_TYPES

    def restore():
        for table, saved in tables + rows:
            table.clear()
            table.update(saved)
        rangealg._SPANABLE_TYPES = spanable

    yield restore
    restore()
