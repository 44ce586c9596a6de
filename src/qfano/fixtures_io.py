"""Access to the data files packaged under qfano/fixtures."""

from importlib import resources


def fixture_text(name):
    return resources.files("qfano").joinpath("fixtures", name).read_text()


def fixture_lines(name):
    return fixture_text(name).splitlines()


def read_lines(path):
    """The lines of a UTF-8 input file; a decoding error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def data_lines(lines):
    """Yield (lineno, text) for each line that is not blank once its #
    comment is removed; lineno counts every raw line from 1."""
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def load_named_expressions(lines, where="<lines>", parse=str):
    """Parse `name = expression` lines (# comments) into an ordered dict
    of parse(expression); every error starts with `where:lineno:`."""
    lines = list(lines)
    out = {}
    for lineno, line in data_lines(lines):
        name, eq, expr = (part.strip() for part in line.partition("="))
        try:
            if not eq or not name or not expr:
                raise ValueError("expected `name = expression`, got %r"
                                 % lines[lineno - 1])
            if name in out:
                raise ValueError("duplicate name %r" % name)
            out[name] = parse(expr)
        except ValueError as exc:
            raise ValueError("%s:%d: %s" % (where, lineno, exc)) from None
    return out
