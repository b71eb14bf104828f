"""The JSON writer behind every `--format json` report.  It is a module of
its own because compiling it within cli.py raised every command's peak RSS.

`write_json` checks the whole value before its first write, so a report
that cannot be rendered writes nothing.  It then writes the report in
chunks of about 64 KiB as it renders.  A value with a `to_json()` method
is written as what that method returns where it stands: the check calls
it, and the render calls it again, so no object's JSON outlives the
lines it is written on."""

from __future__ import annotations

import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

# Characters gathered before `write` is called with their join.
CHUNK_CHARS = 1 << 16
# Pieces joined into one string while a chunk is gathered, so that a chunk
# costs about its characters in memory, not a string object per piece.
BLOCK_PIECES = 64


def write_json(value: object, write: Callable[[str], object]) -> None:
    """Write `json.dumps(value, indent=2, sort_keys=True,
    default=lambda o: o.to_json()) + "\n"` through `write`, for dicts with
    str keys, lists, tuples, str, int, bool, None and objects with a
    `to_json()` method.  Any other value or key raises TypeError, an int
    longer than `sys.get_int_max_str_digits()` and a cycle raise ValueError,
    each before the first write.  Each chunk written holds fewer than
    `CHUNK_CHARS` characters before its last piece.  Each `to_json()` is
    called twice per place its object is reached: to check, to render."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    too_long = 10**limit if limit else None
    inside: set[int] = set()  # the containers and objects on the path being checked

    def check(o: dict | list | tuple) -> None:
        if isinstance(o, dict):
            for k in o:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
        for v in o.values() if isinstance(o, dict) else o:
            if isinstance(v, str) or v is None:
                continue
            if isinstance(v, int):  # bool included
                if too_long is not None and not -too_long < v < too_long:
                    raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion")
                continue
            if id(v) in inside:
                raise ValueError("Circular reference detected")
            if isinstance(v, (dict, list, tuple)):
                inside.add(id(v))
                check(v)
            else:
                to_json = getattr(v, "to_json", None)
                if to_json is None:
                    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
                inside.add(id(v))
                check((to_json(),))
            inside.discard(id(v))

    # The chunk being gathered: `blocks` of joined pieces, then the rest.
    blocks: list[str] = []
    pieces: list[str] = []
    size = 0  # characters in the chunk

    def put(v: object, head: str, indent: str) -> None:
        # `head` precedes v on its line; `indent` is "\n" plus two spaces per level of v.
        if isinstance(v, str):
            text = head + encode_basestring_ascii(v)
        elif isinstance(v, int):
            text = head + ("true" if v is True else "false" if v is False else int.__repr__(v))
        elif v is None:
            text = head + "null"
        elif not isinstance(v, (dict, list, tuple)):
            return put(v.to_json(), head, indent)
        elif not v:
            text = head + ("{}" if isinstance(v, dict) else "[]")
        else:
            inner = indent + "  "
            sep, comma = inner, "," + inner
            if isinstance(v, dict):
                put_text(head + "{")
                for k, x in sorted(v.items()):
                    put(x, sep + encode_basestring_ascii(k) + ": ", inner)
                    sep = comma
                text = indent + "}"
            else:
                put_text(head + "[")
                for x in v:
                    put(x, sep, inner)
                    sep = comma
                text = indent + "]"
        put_text(text)

    def put_text(text: str) -> None:
        nonlocal size
        pieces.append(text)
        size += len(text)
        if size >= CHUNK_CHARS or len(pieces) == BLOCK_PIECES:
            blocks.append("".join(pieces))
            pieces.clear()
            if size >= CHUNK_CHARS:
                write("".join(blocks))
                blocks.clear()
                size = 0

    check((value,))
    put(value, "", "\n")
    write("".join(blocks) + "".join(pieces) + "\n")
