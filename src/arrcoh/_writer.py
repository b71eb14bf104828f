"""The JSON writer behind every `--format json` report.  It is a module of
its own because compiling it within cli.py raised every command's peak RSS.

`write_json` checks the whole value before its first write, so a report
that cannot be rendered writes nothing.  It then writes the report in
chunks of about 64 KiB as it renders.  A value with a `to_json()` method
is written as what that method returns: the check calls it, and the
render calls it again.  A flat's result holds only text, so a flat is
rendered where it stands, and no flat's JSON object outlives the line it
is written on.  A `decompose` module record's result holds the records of
its parts themselves, so the printed tree, in which the decone memo's
modules repeat many times, is the records' own graph: each record reached
more than once is held as one rope, its text at indent 0 cut where a
shared part sits.  The writer's memory grows with the distinct content,
not with the printed tree."""

from __future__ import annotations

import sys
from collections.abc import Callable
from itertools import groupby
from json.encoder import encode_basestring_ascii

# Characters gathered before `write` is called with their join.
CHUNK_CHARS = 1 << 16
# The document's own tokens, outside every rope, are gathered in runs of this many.
DOC_TOKENS = 1024


def write_json(value: object, write: Callable[[str], object]) -> None:
    """Write `json.dumps(value, indent=2, sort_keys=True,
    default=lambda o: o.to_json()) + "\n"` through `write`, for dicts with
    str keys, lists, tuples, str, int, bool, None and objects with a
    `to_json()` method.  Any other value or key raises TypeError, an int
    longer than `sys.get_int_max_str_digits()` and a cycle raise ValueError,
    each before the first write.  Each chunk written holds fewer than
    `CHUNK_CHARS` characters before its last piece.

    `to_json()` is called once to check its result and once to render it.
    An object whose result holds another such object, as a module record
    holds its parts, is counted by id, and kept alive so that no other
    takes its id: one reached twice is rendered once, at indent 0, and
    re-indented at each occurrence (JSON strings hold no raw newline).
    Containers and all other values are rendered where they stand."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    too_long = 10**limit if limit else None
    reached: dict[int, int] = {}
    kept: list[object] = []
    inside: set[int] = set()

    def count(o: dict | list | tuple) -> bool:
        # The sharing pass, which also checks every value the render
        # accepts.  True if `o` holds an object with `to_json()`.
        if isinstance(o, dict):
            for k in o:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
        holds = False
        for v in o.values() if isinstance(o, dict) else o:
            if isinstance(v, str):
                continue
            if isinstance(v, (dict, list, tuple)):
                if not v:
                    continue
                if id(v) in inside:
                    raise ValueError("Circular reference detected")
                inside.add(id(v))
                holds = count(v) or holds
                inside.discard(id(v))
            elif isinstance(v, int):  # bool included
                if too_long is not None and not -too_long < v < too_long:
                    raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion")
            elif v is not None:
                holds = True
                if id(v) in reached:
                    reached[id(v)] += 1
                    continue
                to_json = getattr(v, "to_json", None)
                if to_json is None:
                    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
                if id(v) in inside:
                    raise ValueError("Circular reference detected")
                inside.add(id(v))
                r = to_json()
                if count(r if isinstance(r, dict) else (r,)):
                    reached[id(v)] = 1
                    kept.append(v)
                inside.discard(id(v))
        return holds

    # A token is text, or a reference (rope, spaces): a shared object's
    # rope, and the spaces of the indent at which it occurs.
    ropes: dict[int, list] = {}
    doc: list = []
    pending: list[str] = []
    size = 0  # characters in `pending`

    def put(v: object, head: str, indent: str, out: list) -> None:
        # `indent` is "\n" plus two spaces per level of v.
        if isinstance(v, str):
            out.append(head + encode_basestring_ascii(v))
        elif isinstance(v, int):
            out.append(head + ("true" if v is True else "false" if v is False else int.__repr__(v)))
        elif v is None:
            out.append(head + "null")
        elif isinstance(v, (dict, list, tuple)):
            if v:
                out.append(head)
                container(v, indent, out)
            else:
                out.append(head + ("{}" if isinstance(v, dict) else "[]"))
        elif reached.get(id(v), 1) == 1:
            put(v.to_json(), head, indent, out)
        else:
            out.append(head)
            out.append((rope(v), indent[1:]))

    def container(o: dict | list | tuple, indent: str, out: list) -> None:
        inner = indent + "  "
        sep, comma = inner, "," + inner
        if isinstance(o, dict):
            out.append("{")
            for k, v in sorted(o.items()):
                put(v, sep + encode_basestring_ascii(k) + ": ", inner, out)
                sep = comma
            out.append(indent + "}")
        else:
            out.append("[")
            for v in o:
                put(v, sep, inner, out)
                sep = comma
            out.append(indent + "]")
        if out is doc and len(doc) > DOC_TOKENS:
            emit(doc, "\n")
            doc.clear()

    def rope(o: object) -> list:
        if id(o) not in ropes:
            tokens: list = []
            put(o.to_json(), "", "\n", tokens)
            pieces: list = []
            for text, run in groupby(tokens, key=lambda t: isinstance(t, str)):
                if text:
                    pieces.append("".join(run))
                else:
                    pieces.extend(run)
            ropes[id(o)] = pieces
        return ropes[id(o)]

    def emit(tokens: list, indent: str) -> None:
        # Tokens rendered at indent "\n", written at `indent`.
        nonlocal size
        for t in tokens:
            if isinstance(t, str):
                pending.append(t.replace("\n", indent))
                size += len(pending[-1])
                if size >= CHUNK_CHARS:
                    write("".join(pending))
                    pending.clear()
                    size = 0
            else:
                r, spaces = t
                emit(r, indent + spaces)

    count((value,))
    put(value, "", "\n", doc)
    emit(doc, "\n")
    pending.append("\n")
    write("".join(pending))
