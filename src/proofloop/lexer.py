"""The one Lean 4 tokenizer; every reader of Lean source goes through it.

:func:`tokenize` yields ``(kind, text, line)`` tokens whose texts concatenate
back to the input; ``line`` is the 1-based line a token starts on.  Kinds:
``COMMENT`` (``--`` up to the newline), ``BLOCK`` (nested ``/- … -/``),
``STRING`` (escaped ``"…"``, or raw ``r#"…"#`` with any number of ``#``),
``CHAR`` (``'a'``, ``'\\''``, ``'\\u{3b1}'``), ``IDENT`` (a dot-qualified name
whose parts are identifiers or ``«…»``) and ``OTHER`` (runs of the rest).  An
unterminated block comment or string runs to the end of the text; a ``'`` or
``«`` that opens no complete literal or name is ``OTHER``.

Identifier characters are Lean's ``isIdFirst``/``isIdRest``: ASCII letters,
``_`` and Lean's letter-like ranges start one; digits, ``'`` and subscripts may
follow.  ``!`` and ``?``, which Lean also allows, end an identifier here, so
they never hide a forbidden word: ``sorry?`` reads as ``sorry``.  With ``«»``
removed, an identifier spells the kernel-bypass option ``debug.skipKernelTC``
if it is that name, and otherwise its first dot-separated part that is
``sorry``, ``admit`` or ``axiom``, if any.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

COMMENT = "comment"
BLOCK = "block"
STRING = "string"
CHAR = "char"
IDENT = "ident"
OTHER = "other"

FORBIDDEN_TOKENS = frozenset({"sorry", "admit", "axiom"})
KERNEL_BYPASS = "debug.skipKernelTC"

# Lean's isLetterLike: Greek without λ, Π and Σ; Coptic; polytonic Greek; the
# letter-like block; mathematical script, double-struck and Fraktur letters.
_LETTER_LIKE = ("\u03b1-\u03ba\u03bc-\u03c9\u0391-\u039f\u03a1\u03a2\u03a4-\u03a9"
                "\u03ca-\u03fb\u1f00-\u1ffe\u2100-\u214f\U0001d49c-\U0001d59f")
_ID_FIRST = "A-Za-z_" + _LETTER_LIKE
# Digits, prime and Lean's isSubScriptAlnum.
_ID_REST = _ID_FIRST + "0-9'\u2080-\u2089\u2090-\u209c\u1d62-\u1d6a"
_PART = f"(?:[{_ID_FIRST}][{_ID_REST}]*|«[^»]*»)"

_TOKEN = re.compile(
    rf"(?P<{STRING}>r(?P<hashes>#*)\"[\s\S]*?(?:\"(?P=hashes)|\Z)"
    r'|"[^"\\]*(?:\\[\s\S]?[^"\\]*)*"?)'
    rf"|(?P<{IDENT}>{_PART}(?:\.{_PART})*)"
    rf"|(?P<{COMMENT}>--[^\n]*)"
    rf"|(?P<{BLOCK}>/-)"
    rf"|(?P<{CHAR}>'(?:\\(?:u\{{[0-9A-Fa-f]*\}}|u[0-9A-Fa-f]{{4}}|x[0-9A-Fa-f]{{2}}|[\s\S])|[^\\])')"
    rf"|(?P<{OTHER}>[^{_ID_FIRST}\-/\"'«]+|[\s\S])"
)
_BLOCK_DELIM = re.compile(r"/-|-/")


def tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    """Yield ``(kind, text, line)`` for every token of ``text``, in order."""
    pos, line, n = 0, 1, len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        kind, end = m.lastgroup, m.end()
        if kind == BLOCK:
            depth, end = 1, n
            for delim in _BLOCK_DELIM.finditer(text, pos + 2):
                depth += 1 if delim.group() == "/-" else -1
                if not depth:
                    end = delim.end()
                    break
        token = text[pos:end]
        yield kind, token, line
        line += token.count("\n")
        pos = end


def forbidden_word(ident: str) -> str | None:
    """The forbidden word an ``IDENT`` token spells (see the module doc), or None."""
    if ident in FORBIDDEN_TOKENS:
        return ident
    if "." not in ident and "«" not in ident:
        return None
    name = ident.replace("«", "").replace("»", "")
    if name == KERNEL_BYPASS:
        return name
    return next((part for part in name.split(".") if part in FORBIDDEN_TOKENS), None)
