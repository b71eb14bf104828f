"""The JSON writer behind every `--format json` report.  It is a module of
its own because compiling it within cli.py raised every command's peak RSS."""

from json.encoder import encode_basestring_ascii


def json_blocks(value: object) -> list[str]:
    """`json.dumps(value, indent=2, sort_keys=True) + "\n"` as blocks to write
    in order, for dicts with str keys, lists, tuples, str, int, bool and None;
    a float or any other value raises TypeError.  A nonempty dict or list
    reached twice (by id(); `value` keeps it alive) is encoded once at indent
    0 and re-indented at each occurrence: JSON strings hold no raw newline."""
    reached: dict[int, int] = {}

    def count(o: dict | list | tuple) -> None:
        for v in o.values() if isinstance(o, dict) else o:
            if isinstance(v, (dict, list, tuple)) and v:
                reached[id(v)] = n = reached.get(id(v), 0) + 1
                if n == 1:
                    count(v)

    texts: dict[int, str] = {}
    blocks: list[str] = []
    out: list[str] = []

    def put(v: object, head: str, indent: str) -> None:
        # `indent` is "\n" plus two spaces per level of v.
        if isinstance(v, str):
            out.append(head + encode_basestring_ascii(v))
        elif isinstance(v, int):  # bool included
            out.append(head + ("true" if v is True else "false" if v is False else int.__repr__(v)))
        elif v is None:
            out.append(head + "null")
        elif not isinstance(v, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        elif not v:
            out.append(head + ("{}" if isinstance(v, dict) else "[]"))
        elif reached[id(v)] == 1:
            out.append(head)
            container(v, indent)
        else:
            if id(v) not in texts:
                texts[id(v)] = alone(v)
            out.append(head + texts[id(v)].replace("\n", indent))

    def container(o: dict | list | tuple, indent: str) -> None:
        inner = indent + "  "
        sep, comma = inner, "," + inner
        if isinstance(o, dict):
            out.append("{")
            for k, v in sorted(o.items()):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(v, sep + encode_basestring_ascii(k) + ": ", inner)
                sep = comma
            out.append(indent + "}")
        else:
            out.append("[")
            for v in o:
                put(v, sep, inner)
                sep = comma
            out.append(indent + "]")
        if len(out) > 4096:  # join into a block: no list of every token is kept
            blocks.append("".join(out))
            out.clear()

    def alone(o: dict | list | tuple) -> str:
        nonlocal blocks, out
        outer, blocks, out = (blocks, out), [], []
        container(o, "\n")
        text, (blocks, out) = "".join(blocks) + "".join(out), outer
        return text

    count((value,))
    put(value, "", "\n")
    blocks.append("".join(out) + "\n")
    return blocks
