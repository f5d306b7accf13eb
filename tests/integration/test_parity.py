"""The parity harness (``tests/parity.py``): every triple it makes.

Each test runs one check on one program under one observer, comparing
each engine with ``backend="interp"``; the runs are shared by the whole
session.  The last test keeps the harness from losing a triple that
``tests/parity_triples.txt`` records.
"""

import pytest

import parity

TRIPLES = list(parity.triples())


@pytest.mark.parametrize("name,observer,check", TRIPLES,
                         ids=["-".join(triple) for triple in TRIPLES])
def test_parity(name, observer, check):
    parity.CHECKS[check](name, observer)


def test_the_harness_makes_every_recorded_triple():
    """``tests/parity_triples.txt`` lists what the per-topic parity files
    checked before the harness replaced them: a corpus row or an observer
    dropped from the harness fails here."""
    missing = parity.recorded_triples() - set(TRIPLES)
    assert not missing, sorted(missing)
