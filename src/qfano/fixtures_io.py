"""Access to the data files packaged under qfano/fixtures."""

from importlib import resources


def fixture_text(name):
    return resources.files("qfano").joinpath("fixtures", name).read_text()


def fixture_lines(name):
    return fixture_text(name).splitlines()


def data_lines(lines):
    """Yield (lineno, text) for each line that is not blank once its #
    comment is removed; lineno counts every raw line from 1."""
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def load_named_expressions(lines):
    """Parse `name = expression` lines (# comments) into an ordered dict."""
    lines = list(lines)
    out = {}
    for lineno, line in data_lines(lines):
        name, eq, expr = line.partition("=")
        if not eq or not name.strip() or not expr.strip():
            raise ValueError("expected `name = expression`, got %r"
                             % lines[lineno - 1])
        name = name.strip()
        if name in out:
            raise ValueError("line %d: duplicate name %r" % (lineno, name))
        out[name] = expr.strip()
    return out
