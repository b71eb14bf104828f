"""The JSON writer behind every `--format json` report.  It is a module of
its own because compiling it within cli.py raised every command's peak RSS.

`write_json` checks the whole value before its first write, so a report
that cannot be rendered writes nothing.  It then writes the report in
chunks as it renders, and holds each container reached more than once as
one rope: its text at indent 0, cut where a shared child sits.  The
writer's memory grows with the distinct content, not with the printed
tree, in which the `decompose` memo's modules repeat many times.

A value with a `to_json()` method, such as a report's flat, is written as
what that method returns, rendered where it stands: the check calls it,
and the render calls it again.  So a report holds its flats as they are,
and no flat's JSON object outlives the line it is written on."""

from __future__ import annotations

import sys
from collections.abc import Callable
from itertools import groupby
from json.encoder import encode_basestring_ascii

# Tokens gathered before `write` is called with their join.
FLUSH_TOKENS = 1024


def write_json(value: object, write: Callable[[str], object]) -> None:
    """Write `json.dumps(value, indent=2, sort_keys=True,
    default=lambda o: o.to_json()) + "\n"` through `write`, for dicts with
    str keys, lists, tuples, str, int, bool, None and objects with a
    `to_json()` method.  Any other value or key raises TypeError, an int
    longer than `sys.get_int_max_str_digits()` and a cycle raise ValueError,
    each before the first write.  A nonempty dict or list reached twice (by
    id(); `value` keeps it alive) is rendered once, at indent 0, and
    re-indented at each occurrence: JSON strings hold no raw newline.

    `to_json()` is called once to check its result and once to render it.
    The containers it returns are new on every call, so none of them is
    counted or shared: once freed, its id can be another's.  A cycle
    through them is still caught, since each stays alive while it is on
    the path (`inside`)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    too_long = 10**limit if limit else None
    reached: dict[int, int] = {}
    inside: set[int] = set()

    def count(o: dict | list | tuple, fresh: bool) -> None:
        # The sharing pass, which also checks every value the render accepts.
        # Nothing under a `to_json()` result (`fresh`) is counted.
        if isinstance(o, dict):
            for k in o:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
        for v in o.values() if isinstance(o, dict) else o:
            if isinstance(v, str):
                continue
            if isinstance(v, (dict, list, tuple)):
                if not v:
                    continue
                if id(v) in inside:
                    raise ValueError("Circular reference detected")
                if not fresh:
                    reached[id(v)] = n = reached.get(id(v), 0) + 1
                    if n > 1:
                        continue
                inside.add(id(v))
                count(v, fresh)
                inside.discard(id(v))
            elif isinstance(v, int):  # bool included
                if too_long is not None and not -too_long < v < too_long:
                    raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion")
            elif v is not None:
                to_json = getattr(v, "to_json", None)
                if to_json is None:
                    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
                if id(v) in inside:
                    raise ValueError("Circular reference detected")
                inside.add(id(v))
                count((to_json(),), True)
                inside.discard(id(v))

    # A token is text, or a reference (rope, spaces): a shared container's
    # rope, and the spaces of the indent at which it occurs.
    ropes: dict[int, list] = {}
    doc: list = []
    pending: list[str] = []

    def put(v: object, head: str, indent: str, out: list) -> None:
        # `indent` is "\n" plus two spaces per level of v.
        if isinstance(v, str):
            out.append(head + encode_basestring_ascii(v))
        elif isinstance(v, int):
            out.append(head + ("true" if v is True else "false" if v is False else int.__repr__(v)))
        elif v is None:
            out.append(head + "null")
        elif not isinstance(v, (dict, list, tuple)):
            put(v.to_json(), head, indent, out)
        elif not v:
            out.append(head + ("{}" if isinstance(v, dict) else "[]"))
        elif reached.get(id(v), 1) == 1:  # a `to_json()` result is not counted
            out.append(head)
            container(v, indent, out)
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
        if out is doc and len(doc) > FLUSH_TOKENS:
            emit(doc, "\n")
            doc.clear()

    def rope(o: dict | list | tuple) -> list:
        if id(o) not in ropes:
            tokens: list = []
            container(o, "\n", tokens)
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
        for t in tokens:
            if isinstance(t, str):
                pending.append(t.replace("\n", indent))
            else:
                r, spaces = t
                emit(r, indent + spaces)
        if len(pending) > FLUSH_TOKENS:
            write("".join(pending))
            pending.clear()

    count((value,), False)
    put(value, "", "\n", doc)
    emit(doc, "\n")
    pending.append("\n")
    write("".join(pending))
