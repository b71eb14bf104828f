"""The record contract, checked class by class on instances from corpus runs.

Every record class must behave as ``@dataclass(frozen=True)`` would on the
same fields: the twin built by `dataclasses.make_dataclass` is the oracle
for the field order, the repr, the hash and the binding errors.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
from fractions import Fraction

import pytest

from arrcoh import (
    arrangement,
    chambers,
    cli,
    decomposition,
    exact_linalg,
    invariants,
    nerve_homology,
    verify,
)
from arrcoh.errors import InputError
from helpers import corpus_file, load_corpus

MODULES = (arrangement, chambers, decomposition, exact_linalg, invariants, nerve_homology, verify)
RECORDS = sorted(
    (
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and hasattr(value, "__match_args__")
    ),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
SAMPLES_PER_CLASS = 3

# The classes whose __post_init__ validates, each with arguments it rejects.
_H = arrangement.Hyperplane.from_coeffs([1, 0], 0)
INVALID = {
    arrangement.Arrangement: (2, (_H, _H)),
    exact_linalg.RationalMatrix: (((Fraction(1),),), 2),
    exact_linalg.AffineSubspace: (3, exact_linalg.RationalMatrix((), 2), ()),
}


def fields(cls) -> tuple[str, ...]:
    return tuple(cls.__dict__.get("__annotations__", {}))


def values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in fields(type(obj)))


@pytest.fixture(scope="module")
def samples():
    """Up to SAMPLES_PER_CLASS distinct instances of every record class,
    collected while every command runs on every corpus file.  The
    Fourier-Motzkin reference, which no command calls, is run on each
    corpus chamber for `Constraint` and `LinearSystem`."""
    found = {cls: [] for cls in RECORDS}
    with pytest.MonkeyPatch.context() as mp:
        for cls in RECORDS:

            def collecting(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                kept = found[type(self)]
                if len(kept) < SAMPLES_PER_CLASS and self not in kept:
                    kept.append(self)

            mp.setattr(cls, "__init__", collecting)
        corpus = load_corpus()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for name, command in itertools.product(corpus, cli.COMMANDS):
                cli.main([command, corpus_file(name)])
        for a in corpus.values():
            for chamber in chambers.enumerate_chambers(a).chambers:
                chambers.chamber_bounded(chambers.chamber_system(a, chamber.signs))
    return found


def test_all_records_found():
    assert len(RECORDS) == 27
    with_post_init = {cls for cls in RECORDS if "__post_init__" in cls.__dict__}
    assert with_post_init == set(INVALID)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_contract(cls, samples):
    instances = samples[cls]
    assert instances, f"no corpus run built a {cls.__qualname__}"
    names = fields(cls)
    twin = dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)
    assert cls.__match_args__ == twin.__match_args__ == names
    for x in instances:
        vals = values(x)
        copy = twin(*vals)
        # Fields are the annotations, in order, and nothing else is stored.
        assert tuple(vars(x)) == names
        # Positional and keyword construction; binding errors are TypeErrors.
        assert cls(*vals) == x
        assert cls(**dict(zip(names, vals))) == x
        for args, kwargs in bad_calls(names, vals):
            with pytest.raises(TypeError):
                twin(*args, **kwargs)
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        # Equality only within the class; the hash is that of the field tuple.
        assert x.__eq__(vals) is NotImplemented
        assert x.__eq__(copy) is NotImplemented
        assert x != copy and x != vals
        assert hash(x) == hash(copy) == hash(vals)
        assert repr(x) == repr(copy)
        # Frozen.
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert values(x) == vals
    for x, y in itertools.product(instances, repeat=2):
        assert (x == y) == (values(x) == values(y))
        assert (x != y) == (values(x) != values(y))
    if cls in INVALID:
        with pytest.raises(InputError):
            cls(*INVALID[cls])


def bad_calls(names, vals):
    """(args, kwargs) pairs that bind a missing, extra, duplicate or unknown argument."""
    yield (*vals, None), {}
    yield vals, {"unknown": None}
    if names:
        yield vals[:-1], {}
        yield vals, {names[0]: vals[0]}
