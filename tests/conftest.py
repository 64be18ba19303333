"""Fixtures shared across test modules."""

import functools

import pytest

from mtomega import relations


@pytest.fixture(scope="session")
def finite_space():
    """`relations.finite_relation_space`, mining each weight once per session:
    the `relations finite --weights 13..14` golden and the pinned finite
    spans read the same result.  Its reports are tuples, so sharing is safe."""
    return functools.cache(relations.finite_relation_space)
