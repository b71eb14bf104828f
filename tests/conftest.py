from __future__ import annotations

import pytest

from arrcoh.arrangement import build_intersection_poset
from helpers import load_corpus


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_posets(corpus):
    return {name: build_intersection_poset(a) for name, a in corpus.items()}
