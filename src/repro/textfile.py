"""Reading the text inputs of the command line (assembly, host
specifications, fuzz corpora and findings)."""

from __future__ import annotations

from repro.errors import ReproError


def read_text(path: str) -> str:
    """The contents of the UTF-8 text file *path*.  A file that is not
    UTF-8 is a :class:`ReproError` naming it, not a decode traceback."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            raise ReproError("%s: not UTF-8 text" % path) from None
