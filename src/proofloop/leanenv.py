"""Verifier adapter: workspaces, builds, forbidden-token scanning and the axiom audit.

Two interchangeable verifiers sit behind one interface: :class:`RealVerifier`
shells out to the pinned Lean toolchain (``lake build`` plus a driver file for
the transitive axiom listing), while :class:`SimVerifier` evaluates a
deterministic rule table keyed by source-content directives, so full runs can
be replayed on a laptop in seconds.  The sim verifier evaluates a file one way,
cached by path and text: an in-loop build takes the files the workspace marked
since the last build, a new workspace is read from disk once, and the final audit
(and ``proofloop audit``) evaluates the text it read from disk.

The target is decided here, one way: :func:`find_signature` looks up the one
declaration of a bare name, both for a run's input (:func:`find_anchor`) and for
the audit, and the anchor sidecar that carries the target from a run to
``proofloop audit`` is written and read here.  The scanner, the target lookup
and the sim directives read Lean source through :mod:`proofloop.lexer`.  The
scanner flags identifiers in code (the ``{…}`` parts of strings included), never
comments or literals: a name part ``sorry``, ``admit`` or ``axiom`` (not
``sorryFree`` or ``αsorry``) and the kernel-bypass option ``debug.skipKernelTC``.
The axiom audit takes only the listing for exactly the audited name, and fails
when a file does not build.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .lexer import (BLOCK, COMMENT, IDENT, OTHER, SCAN_WORDS, forbidden_words, tokenize,
                    unterminated)
from .plan import AnchorDecl, LineReader

DEFAULT_PERMITTED_AXIOMS = frozenset({"propext", "Quot.sound", "Classical.choice"})
SORRY_AXIOM = "sorryAx"
AUDIT_DRIVER = "AxiomAudit.lean"  # the real verifier's axiom driver, at the workspace root
FILES_DIR = "Proofws"  # the Lake library holding the node files, and its root module's name
# Written into the workspace at run start; ``proofloop audit`` reads the target from it.
ANCHOR_FILE = ".proofloop-anchor.json"

DECL_KEYWORDS = ("theorem", "lemma", "def", "abbrev", "example", "instance", "proposition")


class InputError(Exception):
    """An input is unusable: the Lean file to run (unreadable, or no sorry declaration that
    can be the target), or a workspace's anchor sidecar."""


class VerifierError(Exception):
    """Base class for toolchain and audit failures."""


class ToolchainMissing(VerifierError):
    pass


class BuildTimeout(VerifierError):
    pass


class DeclNotFound(VerifierError):
    pass


class ParseAmbiguity(VerifierError):
    pass


class DriverFail(VerifierError):
    pass


class IoError(VerifierError):
    pass


class SimRuleError(VerifierError):
    pass


@dataclass
class Workspace:
    """On-disk home of one run's Lean sources; one file per written node."""

    root_dir: Path
    node_files: dict[str, str] = field(default_factory=dict)
    # Each node id written or removed since a build last took this map: the text it
    # was written with, or None once removed.  An id placed in node_files directly
    # has no mark; a sim build reads its file only when it builds the workspace in full.
    dirty: dict[str, str | None] = field(default_factory=dict, repr=False)

    def _rel_path(self, node_id: str) -> str:
        """``Proofws/<id>.lean`` for an id that is a module name; any other id is
        ``Encoded/x<hex of its UTF-8 bytes>.lean``, so no two ids share a file."""
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", node_id):
            return f"{FILES_DIR}/{node_id}.lean"
        # A path part per 200 hex digits keeps each name within the 255-byte limit.
        hexed = node_id.encode("utf-8").hex()
        parts = "/".join(f"x{hexed[i:i + 200]}" for i in range(0, len(hexed), 200))
        return f"{FILES_DIR}/Encoded/{parts}.lean"

    def write_node_source(self, node_id: str, text: str) -> None:
        rel = self.node_files.get(node_id) or self._rel_path(node_id)
        path = self.root_dir / rel
        try:
            path.write_text(text, encoding="utf-8")
        except FileNotFoundError:  # the first file of a new directory
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        self.node_files[node_id] = rel
        self.dirty[node_id] = text

    def remove_node_source(self, node_id: str) -> None:
        rel = self.node_files.pop(node_id, None)
        if rel:
            self.dirty[node_id] = None
            path = self.root_dir / rel
            if path.exists():
                path.unlink()


def write_anchor(root: Path, anchor: AnchorDecl) -> None:
    """Record the target's name and header in the sidecar under ``root``."""
    record = {"decl_name": anchor.decl_name, "signature": anchor.signature_text}
    (root / ANCHOR_FILE).write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")


def read_anchor(root: Path) -> tuple[str, str] | None:
    """``(decl name, signature)`` from the sidecar under ``root``; None when there is none."""
    path = root / ANCHOR_FILE
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not (isinstance(data, dict)
            and all(isinstance(data.get(key), str) for key in ("decl_name", "signature"))):
        raise InputError(f"{path} must be an object with string decl_name and signature")
    return data["decl_name"], data["signature"]


def read_workspace(root: Path) -> Workspace:
    """A workspace of every ``.lean`` file under ``root``, keyed by its path, as files in
    different directories may share a stem.  The audit driver, the root module and
    everything under ``.lake/`` are not the run's sources, and are left out."""
    ws = Workspace(root_dir=root)
    generated = {AUDIT_DRIVER, f"{FILES_DIR}.lean"}
    for path in sorted(root.rglob("*.lean")):
        rel = path.relative_to(root)
        if str(rel) not in generated and rel.parts[0] != ".lake":
            ws.node_files[str(rel)] = str(rel)
    return ws


@dataclass(frozen=True)
class BuildReport:
    clean: bool  # compiled with no surviving sorries
    sorry_sites: tuple[tuple[str, int], ...]
    diagnostics: str
    elapsed: float
    compiled: bool = True  # the build tool itself succeeded


@dataclass(frozen=True)
class DeclSignature:
    name: str
    normalized: str  # the header, whitespace-normalized, as the anchor records it
    header_end: int  # the offset in the text where the header ends
    namespace: str = ""  # the enclosing namespace blocks, dot-joined

    @property
    def qualified_name(self) -> str:
        """The full name Lean gives the declaration, as ``#print axioms`` lists it."""
        if self.name.startswith("_root_."):
            return self.name[len("_root_."):]
        return f"{self.namespace}.{self.name}" if self.namespace else self.name


@dataclass(frozen=True)
class AuditReport:
    axioms_used: frozenset[str]
    forbidden_occurrences: tuple[tuple[str, str, int], ...]
    signature_match: bool
    passed: bool
    detail: str = ""


def normalize_signature(text: str) -> str:
    """Collapse whitespace runs to single spaces; idempotent."""
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# The forbidden-token scanner, declaration headers and the target, read through the lexer.

def scan_forbidden_text(text: str, filename: str = "<memory>") -> list[tuple[str, str, int]]:
    """``(word, filename, line)`` for each forbidden identifier in code (see the module doc)."""
    if not any(word in text for word in SCAN_WORDS):
        return []
    return [(word, filename, line) for _, word, line in forbidden_words(tokenize(text))]


def declaration_heads(tokens: list[tuple[str, str, int]]) -> list[tuple[int, int, str]]:
    """``(keyword, name, namespace)`` for each declaration keyword followed by code: two
    token indices (the name is -1 for an anonymous declaration) and the enclosing
    ``namespace`` blocks, dot-joined (``""`` at top level).  ``section`` and ``end`` take
    a name only on their own line, and an ``instance`` takes it after a bracket group
    such as ``(priority := 100)`` (see docs/formats.md)."""
    heads: list[tuple[int, int, str]] = []
    scopes: list[str] = []  # per open scope: its namespace part, or "" for the others
    keyword = -1
    opener = ""  # a namespace, section or end whose name may follow
    group = 0  # brackets open in a group between ``instance`` and its name
    for i, (kind, token, _) in enumerate(tokens):
        if opener and not (kind == OTHER and token.isspace()
                           and (opener == "namespace" or "\n" not in token)):
            parts = token.split(".") if kind == IDENT else []
            if opener == "end":
                del scopes[max(len(scopes) - max(len(parts), 1), 0):]
            else:
                scopes.extend(parts if opener == "namespace" else [""] * max(len(parts), 1))
            opener = ""
            if parts:
                continue
        if kind in (COMMENT, BLOCK) or (kind == OTHER and token.isspace()):
            continue
        if group or (kind == OTHER and token.lstrip()[0] in _OPEN_BRACKETS
                     and keyword >= 0 and tokens[keyword][1] == "instance"):
            for at, char in enumerate(token if kind == OTHER else ""):
                group += (char in _OPEN_BRACKETS) - (char in _CLOSE_BRACKETS)
                if not group and char in _CLOSE_BRACKETS:
                    token = token[at + 1:]  # the code after the group
                    break
            if group or not token.strip():
                continue
        named = kind == IDENT and token not in DECL_KEYWORDS
        if keyword >= 0:
            heads.append((keyword, i if named else -1, ".".join(part for part in scopes if part)))
        keyword = i if token in DECL_KEYWORDS else -1
        if token in ("namespace", "section", "end"):
            opener = token
        elif token == "mutual":
            scopes.append("")
    if group:  # a group left open to the end: the instance has no name
        heads.append((keyword, -1, ".".join(part for part in scopes if part)))
    return heads


_OPEN_BRACKETS = frozenset("([{⦃⟨")
_CLOSE_BRACKETS = frozenset(")]}⦄⟩")


def find_signature(texts: dict[str, str], decl_name: str) -> DeclSignature:
    """The header of the one declaration named ``decl_name`` among ``texts`` (by file);
    only a text that holds the name is tokenized.  None, or more than one in one file or
    across files, raises."""
    found = []
    for rel, text in texts.items():
        if decl_name in text:
            tokens = list(tokenize(text))
            found += [(rel, tokens, head) for head in declaration_heads(tokens)
                      if head[1] >= 0 and tokens[head[1]][1] == decl_name]
    if not found:
        raise DeclNotFound(f"declaration {decl_name} not found")
    if len(found) > 1:
        files = ", ".join(dict.fromkeys(rel for rel, _, _ in found))
        raise ParseAmbiguity(f"multiple declarations named {decl_name} in {files}")
    _, tokens, head = found[0]
    return head_signature(tokens, head)


def head_signature(tokens: list[tuple[str, str, int]], head: tuple[int, int, str]) -> DeclSignature:
    """The header of the named declaration ``head`` of :func:`declaration_heads`: from the
    keyword to the first ``:=`` outside brackets (or the end of the text), split into binders
    and conclusion at the first colon outside brackets and normalized as keyword, name,
    binders, ``:`` and conclusion.  Comments read as spaces; literals are opaque."""
    keyword, name, namespace = head
    decl_name = tokens[name][1]
    items: list[str] = []  # code one character per item, comments as spaces, the rest whole
    for kind, token, _ in tokens[name + 1:]:
        items.extend(token if kind == OTHER else [" " * len(token) if kind in (COMMENT, BLOCK)
                                                  else token])
    depth, colon, end = 0, -1, len(items)
    for i, item in enumerate(items):
        if item in _OPEN_BRACKETS:
            depth += 1
        elif item in _CLOSE_BRACKETS:
            depth -= 1
        elif depth == 0 and item == ":":
            if items[i + 1:i + 2] == ["="]:
                end = i
                break
            if colon < 0:
                colon = i
    if colon < 0:
        raise DeclNotFound(f"declaration {decl_name} has no type ascription")
    header_end = sum(len(token) for _, token, _ in tokens[:name + 1]) + len("".join(items[:end]))
    binders, conclusion = "".join(items[:colon]), "".join(items[colon + 1:end])
    return DeclSignature(decl_name, normalize_signature(
        f"{tokens[keyword][1]} {decl_name} {binders} : {conclusion}"), header_end, namespace)


def find_anchor(text: str) -> AnchorDecl:
    """The target of an input: the declaration that holds its first sorry, with the header
    that :func:`find_signature` gives its name in ``text``, the audit's lookup rule."""
    tokens = list(tokenize(text))
    sorry = next((i for i, word, _ in forbidden_words(tokens) if word == "sorry"), None)
    if sorry is None:
        raise InputError("input contains no sorry declaration")
    heads = declaration_heads(tokens)
    owners = sum(1 for keyword, _, _ in heads if keyword < sorry)  # the last one holds the sorry
    if not owners:
        raise InputError("found a sorry outside any declaration")
    keyword, name, _ = heads[owners - 1]
    if name < 0:
        raise InputError(f"the first sorry lies in an anonymous {tokens[keyword][1]}; "
                         "only a named declaration can be the target")
    try:
        sig = find_signature({"<input>": text}, tokens[name][1])
    except VerifierError as exc:
        raise InputError(f"cannot extract target signature: {exc}") from exc
    starts = list(accumulate((len(token) for _, token, _ in tokens), initial=0))
    if starts[sorry] < sig.header_end:
        raise InputError(f"the sorry of {sig.name} lies in its header, before any top-level :=")
    # The body runs from the end of the header to the next declaration, named or not.
    end = starts[heads[owners][0]] if owners < len(heads) else len(text)
    return AnchorDecl(sig.name, sig.normalized, text[sig.header_end:end])


# ---------------------------------------------------------------------------
# Simulated verifier: deterministic rule table plus in-source directives.

def sim_directives(text: str) -> dict[str, list[str]]:
    """``-- sim: <word> <arg>`` line comments that start their line, by word, in order."""
    directives: dict[str, list[str]] = {}
    line_start = True  # only whitespace since the last newline
    for kind, token, _ in tokenize(text) if "sim:" in text else ():
        rest = token[2:].lstrip()
        if kind == COMMENT and line_start and rest.startswith("sim:"):
            rest = rest[4:].lstrip()
            for word in ("key", "error", "axioms"):
                if rest.startswith(word):
                    directives.setdefault(word, []).append(rest[len(word):].strip())
        _, newline, after = token.rpartition("\n")
        line_start = kind == OTHER and not after.strip() and (line_start or newline == "\n")
    return directives


@dataclass(frozen=True)
class SimRule:
    clean: bool = True
    sorry_lines: tuple[int, ...] = ()
    diagnostics: str = ""
    axioms: frozenset[str] = frozenset()


def parse_sim_rules(text: str) -> dict[str, SimRule]:
    """Parse the rule-table format described in docs/formats.md."""
    reader = LineReader(text, "sim rules", SimRuleError)
    reader.header("simrules")
    rules: dict[str, SimRule] = {}
    while reader.peek() is not None:
        key = reader.expect("rule") or reader.fail("rule needs a key")
        fields: dict = {}
        while (line := reader.take()) != "end":
            word, _, rest = line.partition(" ")
            if word == "clean":
                fields["clean"] = rest.strip() == "true"
            elif word == "sorries":
                fields["sorry_lines"] = tuple(reader.ints(rest))
            elif word == "diagnostics":
                fields["diagnostics"] = rest.strip()
            elif word == "axioms":
                fields["axioms"] = frozenset(rest.split())
            else:
                reader.fail(f"unknown rule field {word!r}")
        rules[key] = SimRule(**fields)
    return rules


def read_input(path: Path) -> str:
    """The text of a UTF-8 input file; one that cannot be read or decoded is an InputError
    that names it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_sim_rules(path: Path | None) -> dict[str, SimRule]:
    if path is None:
        return {}
    return parse_sim_rules(read_input(path))


@dataclass(frozen=True)
class _FileBuild:
    """What one file contributes to a sim build and audit, and the text it was derived from."""

    text: str
    errors: tuple[str, ...]
    sites: tuple[tuple[str, int], ...]
    axioms: frozenset[str]


class SimVerifier:
    """Rule-table verifier driven by in-source directives.

    Each file is evaluated one way, cached by relative path and exact text, so a
    file is rescanned only when its text changed since its path was last
    evaluated.  An in-loop build of the workspace it built last takes only that
    workspace's ``dirty`` map, the files written or removed since.  A workspace it
    did not build last is built in full, once: each file without a mark is read
    from disk, the only disk read in a build.  A file placed in or dropped from
    ``node_files`` by hand between two builds of one workspace is not seen.  The
    build keeps the contribution of each file that has errors or sorry sites, by
    node id, and puts the report together from those alone.  The axiom audit
    evaluates exactly the texts the audit's scan read, through the same cache.
    The rule table is fixed at construction.
    """

    mode = "sim"

    def __init__(self, rules: dict[str, SimRule] | None = None):
        self._rules = dict(rules or {})
        # relative path -> the contribution of the text last evaluated at that path
        self._built: dict[str, _FileBuild] = {}
        self._ws: Workspace | None = None  # the workspace built last
        self._faults: dict[str, _FileBuild] = {}  # its ids whose file has errors or sorry sites

    def ensure_available(self) -> None:
        pass

    def init_workspace(self, ws: Workspace) -> None:
        ws.root_dir.mkdir(parents=True, exist_ok=True)

    def _build_file(self, rel: str, text: str) -> _FileBuild:
        directives = sim_directives(text)
        declared = frozenset(name for spec in directives.get("axioms", []) for name in spec.split())
        open_kind = unterminated(text)
        if open_kind:
            literal = "comment" if open_kind == BLOCK else "string literal"
            return _FileBuild(text, (f"{rel}: error: unterminated {literal}",), (), declared)
        if "key" in directives:
            key = directives["key"][0]
            rule = self._rules.get(key)
            if rule is None:
                return _FileBuild(text, (f"{rel}: error: unknown sim rule key '{key}'",), (),
                                  declared)
            errors = [f"{rel}: {rule.diagnostics}"] if rule.diagnostics else []
            if not rule.clean and not rule.diagnostics and not rule.sorry_lines:
                errors.append(f"{rel}: error: build rejected by rule '{key}'")
            return _FileBuild(text, tuple(errors), tuple((rel, line) for line in rule.sorry_lines),
                              declared | rule.axioms)
        if "error" in directives:
            return _FileBuild(text, (f"{rel}: error: {directives['error'][0]}",), (), declared)
        sites = tuple((rel, line) for token, _, line in scan_forbidden_text(text, rel)
                      if token == "sorry")
        # A sorry the rule table does not account for reaches the kernel as sorryAx.
        return _FileBuild(text, (), sites, (declared | {SORRY_AXIOM}) if sites else declared)

    def _evaluate(self, ws: Workspace, rel: str, text: str | None) -> _FileBuild:
        """The contribution of the file at ``rel`` holding ``text``, or, given None,
        the text on disk; the one way a file is evaluated."""
        if text is None:
            path = ws.root_dir / rel
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise IoError(f"cannot read {path}: {exc}") from exc
        result = self._built.get(rel)
        if result is None or result.text != text:
            result = self._built[rel] = self._build_file(rel, text)
        return result

    def _take(self, ws: Workspace, node_id: str, text: str | None) -> None:
        """Account for ``node_id``'s file as evaluated from ``text`` (from disk, for a
        file without a mark); an id the workspace no longer has is dropped."""
        rel = ws.node_files.get(node_id)
        result = None if rel is None else self._evaluate(ws, rel, text)
        if result and (result.errors or result.sites):
            self._faults[node_id] = result
        else:
            self._faults.pop(node_id, None)

    def build(self, ws: Workspace) -> BuildReport:
        if ws is not self._ws:
            self._ws, self._faults = ws, {}
            for node_id in sorted(ws.node_files.keys() - ws.dirty.keys()):
                self._take(ws, node_id, None)
        while ws.dirty:
            self._take(ws, *ws.dirty.popitem())
        faults = [self._faults[node_id] for node_id in sorted(self._faults)]
        errors = [error for result in faults for error in result.errors]
        sites = tuple(site for result in faults for site in result.sites)
        return BuildReport(not errors and not sites, sites, "\n".join(errors), 0.0, not errors)

    def audit_axioms(self, ws: Workspace, name: str, texts: dict[str, str]) -> set[str]:
        """Axioms of every file, evaluated from its text in ``texts`` (by relative path), the
        bytes the audit scanned; any file that does not build fails the audit, as in Lean."""
        builds = [self._evaluate(ws, rel, texts[rel]) for rel in ws.node_files.values()]
        errors = [error for build in builds for error in build.errors]
        if errors:
            raise DriverFail("workspace does not build: " + "; ".join(errors))
        return set().union(*(build.axioms for build in builds))


# ---------------------------------------------------------------------------
# Real toolchain verifier.

_SORRY_WARNING = re.compile(r"([^\s:]+\.lean):(\d+):(\d+).*declaration uses 'sorry'")
_ERROR_LINE = re.compile(r"(^|\s)error[: ]", re.IGNORECASE)
# Lean's ``#print axioms`` quotes the name, ``'{constName}' depends on axioms: …`` (from
# Lean's source as known, not run here), so a primed ``Main'`` prints as ``'Main''``: a name
# runs to the quote that whitespace follows, and holds whitespace only inside ``«»``.
_QUOTED_NAME = r"'((?:«[^»\n]*»|[^'\s]|'(?!\s))+)'"
_AXIOM_LIST = re.compile(_QUOTED_NAME + r"\s+depends on axioms:\s*\[([^\]]*)\]")
_AXIOM_NONE = re.compile(_QUOTED_NAME + r"\s+does not depend on any axioms")


def parse_build_output(output: str) -> tuple[list[str], list[tuple[str, int]]]:
    """Split captured build output into error lines and sorry-warning sites."""
    errors: list[str] = []
    sites: list[tuple[str, int]] = []
    for line in output.splitlines():
        match = _SORRY_WARNING.search(line)
        if match:
            sites.append((match.group(1), int(match.group(2))))
            continue
        if _ERROR_LINE.search(line):
            errors.append(line.strip())
    return errors, sites


def parse_axioms_output(output: str, decl_name: str) -> set[str]:
    """The axioms listed for exactly ``decl_name``; anything but one listing is a DriverFail."""
    listings = [{item.strip() for item in match.group(2).split(",")} - {""}
                for match in _AXIOM_LIST.finditer(output) if match.group(1) == decl_name]
    listings += [set() for match in _AXIOM_NONE.finditer(output) if match.group(1) == decl_name]
    if len(listings) != 1:
        raise DriverFail(f"{len(listings)} axiom listings for {decl_name} in driver output")
    return listings[0]


_LAKEFILE = """name = "proofws"
defaultTargets = ["{lib}"]

[[lean_lib]]
name = "{lib}"
"""


class RealVerifier:
    """Drives the pinned Lean toolchain through ``lake`` subprocesses."""

    mode = "real"

    def __init__(self, lake_cmd: str = "lake", build_timeout: float = 1200.0):
        self.lake_cmd = lake_cmd
        self.build_timeout = build_timeout

    def ensure_available(self) -> str:
        """The path of ``lake``; raises :class:`ToolchainMissing` if it is not found."""
        path = shutil.which(self.lake_cmd)
        if path is None:
            raise ToolchainMissing(f"{self.lake_cmd} not found on PATH")
        return path

    def init_workspace(self, ws: Workspace) -> None:
        self.ensure_available()
        ws.root_dir.mkdir(parents=True, exist_ok=True)
        (ws.root_dir / "lakefile.toml").write_text(
            _LAKEFILE.format(lib=FILES_DIR), encoding="utf-8"
        )
        (ws.root_dir / FILES_DIR).mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _imports(ws: Workspace) -> str:
        """An import line for the Lean module of each workspace file, sorted."""
        modules = sorted(rel.removesuffix(".lean").replace("/", ".") for rel in ws.node_files.values())
        return "".join(f"import {module}\n" for module in modules)

    def _refresh_root_module(self, ws: Workspace) -> None:
        (ws.root_dir / f"{FILES_DIR}.lean").write_text(self._imports(ws), encoding="utf-8")

    def _run(self, ws: Workspace, args: list[str]) -> subprocess.CompletedProcess[str]:
        lake = self.ensure_available()
        try:
            return subprocess.run(
                [lake, *args],
                cwd=ws.root_dir,
                capture_output=True,
                text=True,
                timeout=self.build_timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BuildTimeout(f"build exceeded {self.build_timeout}s") from exc

    def build(self, ws: Workspace) -> BuildReport:
        ws.dirty.clear()  # lake reads every file from disk
        self._refresh_root_module(ws)
        start = time.monotonic()
        proc = self._run(ws, ["build"])
        elapsed = time.monotonic() - start
        output = proc.stdout + "\n" + proc.stderr
        errors, sites = parse_build_output(output)
        if proc.returncode != 0 and not errors:
            errors = [f"error: lake build exited with status {proc.returncode}"]
        compiled = proc.returncode == 0 and not errors
        return BuildReport(compiled and not sites, tuple(sites), "\n".join(errors), elapsed, compiled)

    def audit_axioms(self, ws: Workspace, name: str, texts: dict[str, str]) -> set[str]:
        """Axioms of the declaration ``name``, namespace-qualified as ``#print axioms`` takes
        it; lake reads the files from disk, so ``texts`` goes unused."""
        driver = self._imports(ws) + f"\n#print axioms {name}\n"
        (ws.root_dir / AUDIT_DRIVER).write_text(driver, encoding="utf-8")
        proc = self._run(ws, ["env", "lean", AUDIT_DRIVER])
        output = proc.stdout + "\n" + proc.stderr
        if proc.returncode != 0:
            raise DriverFail(f"axiom driver failed: {output.strip()[:500]}")
        return parse_axioms_output(output, name)


# ---------------------------------------------------------------------------
# Composite audit.

def audit_verdict(
    ws: Workspace,
    anchor_signature: str,
    decl_name: str,
    verifier: SimVerifier | RealVerifier,
    permitted: frozenset[str] = DEFAULT_PERMITTED_AXIOMS,
) -> AuditReport:
    """Compose forbidden-token scan, signature check and axiom audit; the one lookup of
    ``decl_name`` in the whole workspace gives the header to compare and the name to
    audit.  Each file is read from disk once, and its text goes to all three."""
    details: list[str] = []
    try:
        texts = {rel: (ws.root_dir / rel).read_text(encoding="utf-8")
                 for rel in sorted(ws.node_files.values())}
    except OSError as exc:
        return AuditReport(frozenset(), (), False, False, f"scan failed: {exc}")
    forbidden = tuple(hit for rel, text in texts.items() for hit in scan_forbidden_text(text, rel))
    if forbidden:
        details.append(f"{len(forbidden)} forbidden token occurrence(s)")

    try:
        found = find_signature(texts, decl_name)
    except VerifierError as exc:
        return AuditReport(frozenset(), forbidden, False, False, f"target not found: {exc}")
    sig_ok = found.normalized == normalize_signature(anchor_signature)
    if not sig_ok:
        details.append("target signature does not match the anchor")

    try:
        axioms = frozenset(verifier.audit_axioms(ws, found.qualified_name, texts))
    except VerifierError as exc:
        return AuditReport(frozenset(), forbidden, sig_ok, False, f"axiom audit failed: {exc}")
    extra = axioms - permitted
    if extra:
        details.append("axioms outside permitted set: " + ", ".join(sorted(extra)))
    if SORRY_AXIOM in axioms:
        details.append(f"{SORRY_AXIOM} present")

    passed = sig_ok and not forbidden and axioms <= permitted and SORRY_AXIOM not in axioms
    return AuditReport(axioms, forbidden, sig_ok, passed, "; ".join(details))
