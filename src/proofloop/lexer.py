"""The one Lean 4 tokenizer; every reader of Lean source goes through it.

:func:`tokenize` yields ``(kind, text, line)`` tokens whose texts concatenate
back to the input; ``line`` is the 1-based line a token starts on.  Kinds:
``COMMENT`` (``--`` up to the newline), ``BLOCK`` (nested ``/- … -/``),
``STRING`` (escaped ``"…"``, or raw ``r#"…"#`` with any number of ``#``),
``CHAR`` (``'a'``, ``'\\''``, ``'\\u{3b1}'``), ``IDENT`` (a dot-qualified name
whose parts are identifiers or ``«…»``) and ``OTHER`` (runs of the rest; each
brace is a token of its own).  An unterminated block comment or string runs to
the end of the text, and :func:`unterminated` reports it; a ``'`` or ``«``
that opens no complete literal or name is ``OTHER``.

Identifier characters are Lean's ``isIdFirst``/``isIdRest``: ASCII letters,
``_`` and Lean's letter-like ranges start one; digits, ``'`` and subscripts may
follow.  ``!`` and ``?``, which Lean also allows, end an identifier here, so
they never hide a forbidden word: ``sorry?`` reads as ``sorry``.  With ``«»``
removed, an identifier spells the kernel-bypass option ``debug.skipKernelTC``
if it is that name, and otherwise its first dot-separated part that is
``sorry``, ``admit`` or ``axiom``, if any; :func:`forbidden_words` finds
those in code, the ``{…}`` parts of strings included.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

COMMENT = "comment"
BLOCK = "block"
STRING = "string"
CHAR = "char"
IDENT = "ident"
OTHER = "other"

FORBIDDEN_TOKENS = frozenset({"sorry", "admit", "axiom"})
KERNEL_BYPASS = "debug.skipKernelTC"
# Every forbidden identifier holds one of these words: a forbidden token, or the last
# part of the kernel-bypass name, which ``«»`` may set apart from the rest.  A set's order
# moves with the hash seed, so they are sorted: a scan does the same work in every process.
SCAN_WORDS = (*sorted(FORBIDDEN_TOKENS), KERNEL_BYPASS.rpartition(".")[2])

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
    rf"|(?P<{OTHER}>[^{_ID_FIRST}\-/\"'«{{}}]+|[\s\S])"
)
_BLOCK_DELIM = re.compile(r"/-|-/")
_CLOSED_STRING = re.compile(r'r(#*)"[\s\S]*"\1|"(?:[^"\\]|\\[\s\S])*"')
_ESCAPE_OR_BRACE = re.compile(r"\\[\s\S]?|\{")


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


def unterminated(text: str) -> str | None:
    """``BLOCK`` or ``STRING`` if ``text`` ends inside a block comment or string left open."""
    if '"' not in text and "/-" not in text:
        return None  # every block comment and string holds one of these
    *_, (kind, token, _) = tokenize(text)
    delims = _BLOCK_DELIM.findall(token) if kind == BLOCK else []
    if delims.count("/-") > delims.count("-/") or kind == STRING and not _CLOSED_STRING.fullmatch(token):
        return kind
    return None


def forbidden_words(tokens: Iterable[tuple[str, str, int]]) -> Iterator[tuple[int, str, int]]:
    """``(index, word, line)`` for each forbidden identifier in code among ``tokens``.

    Each ``{…}`` part of a ``"…"`` string is code too, as in Lean's interpolated
    strings: outside the parts ``\\`` escapes one character, and a part ends
    at the ``}`` that closes it in code (not in a comment or literal) or with
    the string.  ``index`` is the position of the token that holds the word.
    """
    for i, (kind, token, line) in enumerate(tokens):
        if kind == IDENT and (word := forbidden_word(token)):
            yield i, word, line
        elif kind == STRING and token[0] == '"' and "{" in token:
            stop = len(token) - 1 if _CLOSED_STRING.fullmatch(token) else len(token)
            pos = 1
            while m := _ESCAPE_OR_BRACE.search(token, pos, stop):
                pos = m.end()
                if m.group() != "{":
                    continue
                part, depth = [], 1
                for sub in tokenize(token[pos:stop]):
                    depth += (sub[1] == "{") - (sub[1] == "}") if sub[0] == OTHER else 0
                    if not depth:
                        break
                    part.append(sub)
                first = line + token.count("\n", 0, pos) - 1
                yield from ((i, word, first + at) for _, word, at in forbidden_words(part))
                pos += sum(len(text) for _, text, _ in part) + 1


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
