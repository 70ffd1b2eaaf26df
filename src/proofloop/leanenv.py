"""Verifier adapter: workspaces, builds, forbidden-token scanning and the axiom audit.

Two interchangeable verifiers sit behind one interface: :class:`RealVerifier`
shells out to the pinned Lean toolchain (``lake build`` plus a driver file for
the transitive axiom listing), while :class:`SimVerifier` evaluates a
deterministic rule table keyed by source-content directives, so full runs can
be replayed on a laptop in seconds.  In-loop sim builds evaluate the text the
workspace wrote, cached per file by content; the final audit (and
``proofloop audit``) reads every file from disk.

The forbidden-token scanner understands Lean comment and string syntax: line
comments, nested block comments and escaped string literals never produce
occurrences, and identifiers that merely contain a token (``sorryFree``) are
not flagged.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

FORBIDDEN_TOKENS = ("sorry", "admit", "axiom")
DEFAULT_PERMITTED_AXIOMS = frozenset({"propext", "Quot.sound", "Classical.choice"})
SORRY_AXIOM = "sorryAx"

DECL_KEYWORDS = ("theorem", "lemma", "def", "abbrev", "example", "instance", "proposition")

_IDENT_CHARS = "_'"

# Whole-word `sorry` against masked source; ident chars match _is_ident_char.
SORRY_TOKEN_RE = re.compile(r"(?<![A-Za-z0-9_'])sorry(?![A-Za-z0-9_'])")


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
    files_dir: str = "Proofws"
    target_file: str = ""
    node_files: dict[str, str] = field(default_factory=dict)
    # Text each path last received from write_node_source; paths placed in
    # node_files directly are absent, and in-loop builds read those from disk.
    written: dict[str, str] = field(default_factory=dict, repr=False)

    def _rel_path(self, node_id: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9_]", "_", node_id)
        if not safe or safe[0].isdigit():
            safe = "N" + safe
        return f"{self.files_dir}/{safe}.lean"

    def write_node_source(self, node_id: str, text: str, is_target: bool = False) -> None:
        rel = self.node_files.get(node_id) or self._rel_path(node_id)
        path = self.root_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        self.node_files[node_id] = rel
        self.written[rel] = text
        if is_target:
            self.target_file = rel

    def remove_node_source(self, node_id: str) -> None:
        rel = self.node_files.pop(node_id, None)
        if rel:
            self.written.pop(rel, None)
            path = self.root_dir / rel
            if path.exists():
                path.unlink()
            if self.target_file == rel:
                self.target_file = ""

    def read_target(self) -> str:
        if not self.target_file:
            raise IoError("workspace has no target file")
        try:
            return (self.root_dir / self.target_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(str(exc)) from exc


@dataclass(frozen=True)
class BuildReport:
    clean: bool  # compiled with no surviving sorries
    sorry_sites: tuple[tuple[str, int], ...]
    diagnostics: str
    elapsed: float
    compiled: bool = True  # the build tool itself succeeded


@dataclass(frozen=True)
class DeclSignature:
    keyword: str
    name: str
    binders_and_hypotheses: str
    conclusion: str

    @property
    def normalized(self) -> str:
        parts = [self.keyword, self.name, self.binders_and_hypotheses, ":", self.conclusion]
        return normalize_signature(" ".join(p for p in parts if p))


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
# Comment/string masking and the forbidden-token scanner.

def mask_lean_source(text: str, mask_strings: bool = True) -> str:
    """Replace comment (and optionally string) content with spaces.

    Newlines survive so line numbers stay valid.  Block comments nest; string
    escapes (backslash) never terminate a literal early.
    """
    out = list(text)
    i = 0
    n = len(text)

    def blank(a: int, b: int) -> None:
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        ch = text[i]
        if ch == "-" and text.startswith("--", i):
            start = i
            while i < n and text[i] != "\n":
                i += 1
            blank(start, i)
        elif ch == "/" and text.startswith("/-", i):
            start = i
            depth = 1
            i += 2
            while i < n and depth:
                if text.startswith("/-", i):
                    depth += 1
                    i += 2
                elif text.startswith("-/", i):
                    depth -= 1
                    i += 2
                else:
                    i += 1
            blank(start, i)
        elif ch == '"':
            start = i
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == '"':
                    i += 1
                    break
                i += 1
            if mask_strings:
                blank(start, i)
        else:
            i += 1
    return "".join(out)


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in _IDENT_CHARS


def scan_forbidden_text(text: str, filename: str = "<memory>") -> list[tuple[str, str, int]]:
    """Whole-word sorry/admit/axiom occurrences outside comments and strings."""
    masked = mask_lean_source(text, mask_strings=True)
    hits: list[tuple[str, str, int]] = []
    pattern = re.compile("|".join(FORBIDDEN_TOKENS))
    for match in pattern.finditer(masked):
        start, end = match.start(), match.end()
        if start > 0 and _is_ident_char(masked[start - 1]):
            continue
        if end < len(masked) and _is_ident_char(masked[end]):
            continue
        line = masked.count("\n", 0, start) + 1
        hits.append((match.group(0), filename, line))
    return hits


# ---------------------------------------------------------------------------
# Declaration signature extraction.

_OPEN_BRACKETS = "([{⦃⟨«"
_CLOSE_BRACKETS = ")]}⦄⟩»"


def extract_signature_text(text: str, decl_name: str) -> DeclSignature:
    """Pull the header of ``decl_name`` out of Lean source text.

    The header runs from the declaration keyword through the ``:=`` (or end of
    the statement) and splits into binders and conclusion at the first
    bracket-depth-zero colon.  Comments are stripped first; bracket punctuation
    inside binders survives intact.
    """
    masked = mask_lean_source(text, mask_strings=False)
    keyword_alt = "|".join(DECL_KEYWORDS)
    pattern = re.compile(
        rf"(?:^|(?<=[\s,;({{\[]))({keyword_alt})\s+({re.escape(decl_name)})(?![A-Za-z0-9_'])",
    )
    matches = list(pattern.finditer(masked))
    if not matches:
        raise DeclNotFound(f"declaration {decl_name} not found")
    if len(matches) > 1:
        raise ParseAmbiguity(f"multiple declarations named {decl_name}")
    match = matches[0]
    keyword = match.group(1)
    i = match.end()
    n = len(masked)
    depth = 0
    colon_at = -1
    end_at = n
    in_string = False
    while i < n:
        ch = masked[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            i += 1
            continue
        if ch in _OPEN_BRACKETS:
            depth += 1
        elif ch in _CLOSE_BRACKETS:
            depth -= 1
        elif depth == 0:
            if masked.startswith(":=", i):
                end_at = i
                break
            if ch == ":" and colon_at < 0:
                colon_at = i
        i += 1
    if colon_at < 0 or colon_at >= end_at:
        raise DeclNotFound(f"declaration {decl_name} has no type ascription")
    binders = normalize_signature(masked[match.end():colon_at])
    conclusion = normalize_signature(masked[colon_at + 1:end_at])
    return DeclSignature(keyword, decl_name, binders, conclusion)


def signature_match(anchor_signature: str, decl_name: str, ws: Workspace) -> bool:
    """True iff the workspace target still carries the anchored header."""
    try:
        found = extract_signature_text(ws.read_target(), decl_name)
    except VerifierError:
        return False
    return found.normalized == normalize_signature(anchor_signature)


# ---------------------------------------------------------------------------
# Simulated verifier: deterministic rule table plus in-source directives.

_SIM_DIRECTIVE = re.compile(r"^\s*--\s*sim:\s*(key|error|axioms)\s*(.*?)\s*$", re.MULTILINE)


@dataclass(frozen=True)
class SimRule:
    clean: bool = True
    sorry_lines: tuple[int, ...] = ()
    diagnostics: str = ""
    axioms: frozenset[str] = frozenset()


def parse_sim_rules(text: str) -> dict[str, SimRule]:
    """Parse the rule-table format described in docs/formats.md."""
    rules: dict[str, SimRule] = {}
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "simrules v1":
        raise SimRuleError("not a simrules v1 document")
    i = 1
    while i < len(lines):
        if not lines[i].startswith("rule "):
            raise SimRuleError(f"expected 'rule', got {lines[i]!r}")
        key = lines[i].split(None, 1)[1]
        i += 1
        clean = True
        sorry_lines: tuple[int, ...] = ()
        diagnostics = ""
        axioms: frozenset[str] = frozenset()
        while i < len(lines) and lines[i] != "end":
            word, _, rest = lines[i].partition(" ")
            if word == "clean":
                clean = rest.strip() == "true"
            elif word == "sorries":
                sorry_lines = tuple(int(x) for x in rest.split())
            elif word == "diagnostics":
                diagnostics = rest.strip()
            elif word == "axioms":
                axioms = frozenset(rest.split())
            else:
                raise SimRuleError(f"unknown rule field {word!r}")
            i += 1
        if i >= len(lines):
            raise SimRuleError(f"rule {key} missing 'end'")
        i += 1
        rules[key] = SimRule(clean, sorry_lines, diagnostics, axioms)
    return rules


def load_sim_rules(path: Path | None) -> dict[str, SimRule]:
    if path is None:
        return {}
    return parse_sim_rules(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class _FileBuild:
    """What one file contributes to a sim build and audit, and the text it was derived from."""

    text: str
    errors: tuple[str, ...]
    sites: tuple[tuple[str, int], ...]
    axioms: frozenset[str]


class SimVerifier:
    """Rule-table verifier driven by in-source directives.

    In-loop builds evaluate the text the workspace wrote for each path (files
    it did not write are read from disk) and cache each file's contribution
    by content, so a build rescans only the files that changed since the last
    one.  The axiom audit evaluates each file the same way, but always on
    the text read from disk and never through the cache.  The rule table is
    fixed at construction.
    """

    mode = "sim"

    def __init__(self, rules: dict[str, SimRule] | None = None):
        self.rules = dict(rules or {})
        # (workspace root, relative path) -> contribution; holds only the
        # files of the last build.
        self._built: dict[tuple[Path, str], _FileBuild] = {}

    def ensure_available(self) -> None:
        pass

    def init_workspace(self, ws: Workspace) -> None:
        ws.root_dir.mkdir(parents=True, exist_ok=True)

    def _build_file(self, rel: str, text: str) -> _FileBuild:
        directives: dict[str, list[str]] = {}
        for match in _SIM_DIRECTIVE.finditer(text):
            directives.setdefault(match.group(1), []).append(match.group(2))
        declared = frozenset(name for spec in directives.get("axioms", []) for name in spec.split())
        if "key" in directives:
            key = directives["key"][0]
            rule = self.rules.get(key)
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

    def build(self, ws: Workspace) -> BuildReport:
        errors: list[str] = []
        sites: list[tuple[str, int]] = []
        built: dict[tuple[Path, str], _FileBuild] = {}
        for node_id in sorted(ws.node_files):
            rel = ws.node_files[node_id]
            text = ws.written.get(rel)
            if text is None:
                path = ws.root_dir / rel
                try:
                    text = path.read_text(encoding="utf-8")
                except OSError as exc:
                    raise IoError(f"cannot read {path}: {exc}") from exc
            key = (ws.root_dir, rel)
            result = self._built.get(key)
            if result is None or result.text != text:
                result = self._build_file(rel, text)
            built[key] = result
            errors.extend(result.errors)
            sites.extend(result.sites)
        self._built = built
        compiled = not errors
        clean = compiled and not sites
        return BuildReport(clean, tuple(sites), "\n".join(errors), 0.0, compiled)

    def audit_axioms(self, ws: Workspace, decl_name: str) -> set[str]:
        axioms: set[str] = set()
        for node_id in sorted(ws.node_files):
            rel = ws.node_files[node_id]
            axioms |= self._build_file(rel, (ws.root_dir / rel).read_text(encoding="utf-8")).axioms
        return axioms


# ---------------------------------------------------------------------------
# Real toolchain verifier.

_SORRY_WARNING = re.compile(r"([^\s:]+\.lean):(\d+):(\d+).*declaration uses 'sorry'")
_ERROR_LINE = re.compile(r"(^|\s)error[: ]", re.IGNORECASE)
_AXIOM_LIST = re.compile(r"'([^']+)'\s+depends on axioms:\s*\[([^\]]*)\]")
_AXIOM_NONE = re.compile(r"'([^']+)'\s+does not depend on any axioms")


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
    for match in _AXIOM_LIST.finditer(output):
        if match.group(1).split(".")[-1] == decl_name.split(".")[-1] or match.group(1) == decl_name:
            items = [item.strip() for item in match.group(2).split(",")]
            return {item for item in items if item}
    for match in _AXIOM_NONE.finditer(output):
        if match.group(1).split(".")[-1] == decl_name.split(".")[-1] or match.group(1) == decl_name:
            return set()
    raise DriverFail(f"axiom listing for {decl_name} not found in driver output")


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

    def _require_toolchain(self) -> str:
        path = shutil.which(self.lake_cmd)
        if path is None:
            raise ToolchainMissing(f"{self.lake_cmd} not found on PATH")
        return path

    def ensure_available(self) -> None:
        self._require_toolchain()

    def init_workspace(self, ws: Workspace) -> None:
        self._require_toolchain()
        ws.root_dir.mkdir(parents=True, exist_ok=True)
        (ws.root_dir / "lakefile.toml").write_text(
            _LAKEFILE.format(lib=ws.files_dir), encoding="utf-8"
        )
        (ws.root_dir / ws.files_dir).mkdir(parents=True, exist_ok=True)

    def _refresh_root_module(self, ws: Workspace) -> None:
        imports = sorted(
            rel[len(ws.files_dir) + 1 : -len(".lean")].replace("/", ".")
            for rel in ws.node_files.values()
        )
        text = "".join(f"import {ws.files_dir}.{mod}\n" for mod in imports)
        (ws.root_dir / f"{ws.files_dir}.lean").write_text(text, encoding="utf-8")

    def _run(self, ws: Workspace, args: list[str]) -> subprocess.CompletedProcess[str]:
        lake = self._require_toolchain()
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
        import time

        self._refresh_root_module(ws)
        start = time.monotonic()
        proc = self._run(ws, ["build"])
        elapsed = time.monotonic() - start
        output = proc.stdout + "\n" + proc.stderr
        errors, sites = parse_build_output(output)
        if proc.returncode != 0 and not errors:
            errors = [f"error: lake build exited with status {proc.returncode}"]
        compiled = proc.returncode == 0 and not errors
        clean = compiled and not sites
        diagnostics = "\n".join(errors)
        return BuildReport(clean, tuple(sites), diagnostics, elapsed, compiled)

    def audit_axioms(self, ws: Workspace, decl_name: str) -> set[str]:
        imports = sorted(
            rel[: -len(".lean")].replace("/", ".") for rel in ws.node_files.values()
        )
        driver = "".join(f"import {mod}\n" for mod in imports)
        driver += f"\n#print axioms {decl_name}\n"
        driver_path = ws.root_dir / "AxiomAudit.lean"
        driver_path.write_text(driver, encoding="utf-8")
        proc = self._run(ws, ["env", "lean", "AxiomAudit.lean"])
        output = proc.stdout + "\n" + proc.stderr
        if proc.returncode != 0:
            raise DriverFail(f"axiom driver failed: {output.strip()[:500]}")
        return parse_axioms_output(output, decl_name)


# ---------------------------------------------------------------------------
# Composite audit.

def audit_verdict(
    ws: Workspace,
    anchor_signature: str,
    decl_name: str,
    verifier: SimVerifier | RealVerifier,
    permitted: frozenset[str] = DEFAULT_PERMITTED_AXIOMS,
) -> AuditReport:
    """Compose forbidden-token scan, signature check and axiom audit."""
    details: list[str] = []
    try:
        hits: list[tuple[str, str, int]] = []
        for rel in sorted(ws.node_files.values()):
            text = (ws.root_dir / rel).read_text(encoding="utf-8")
            hits.extend(scan_forbidden_text(text, rel))
        forbidden = tuple(hits)
    except OSError as exc:
        return AuditReport(frozenset(), (), False, False, f"scan failed: {exc}")
    if forbidden:
        details.append(f"{len(forbidden)} forbidden token occurrence(s)")

    sig_ok = signature_match(anchor_signature, decl_name, ws)
    if not sig_ok:
        details.append("target signature does not match the anchor")

    try:
        axioms = frozenset(verifier.audit_axioms(ws, decl_name))
    except VerifierError as exc:
        return AuditReport(frozenset(), forbidden, sig_ok, False, f"axiom audit failed: {exc}")
    extra = axioms - permitted
    if extra:
        details.append("axioms outside permitted set: " + ", ".join(sorted(extra)))
    if SORRY_AXIOM in axioms:
        details.append(f"{SORRY_AXIOM} present")

    passed = sig_ok and not forbidden and axioms <= permitted and SORRY_AXIOM not in axioms
    return AuditReport(axioms, forbidden, sig_ok, passed, "; ".join(details))
