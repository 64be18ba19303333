"""Fixtures shared across test modules."""

import pytest

from mtomega import relations


@pytest.fixture(scope="session")
def finite_spaces():
    """`relations.finite_relation_spaces`, mining each weight once per session:
    the `relations finite --weights 13..14` golden and the pinned finite
    spans read the same result.  The weights not mined yet are mined in one
    pass; the reports are tuples, so sharing is safe."""
    mine, mined = relations.finite_relation_spaces, {}

    def spaces(weights):
        weights = list(weights)
        missing = [w for w in weights if w not in mined]
        mined.update(zip(missing, mine(missing)))
        return (mined[w] for w in weights)

    return spaces
