import random
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import proofloop.leanenv as leanenv
from helpers import (
    BURNSIDE_DIR, oracle_scan, plant_declarations, random_lean_file, workspace_texts,
)
from proofloop.lexer import BLOCK, COMMENT, IDENT, OTHER, STRING, tokenize
from proofloop.leanenv import (
    DEFAULT_PERMITTED_AXIOMS,
    BuildTimeout,
    DeclNotFound,
    DriverFail,
    InputError,
    ParseAmbiguity,
    RealVerifier,
    SimRule,
    SimRuleError,
    SimVerifier,
    Workspace,
    audit_verdict,
    find_anchor,
    find_signature,
    normalize_signature,
    parse_axioms_output,
    parse_build_output,
    parse_sim_rules,
    scan_forbidden_text,
)

CLEAN_LISTING = """/-
Copyright notice. /- nested block -/ still one comment.
-/
import Mathlib.GroupTheory.Perm.Basic

/-- A docstring mentioning that nothing here is admitted. -/
theorem cyclic_normal (h : True) : True := by
  -- the word sorry in a comment is fine
  have s : String := "sorry admit axiom"
  exact h

theorem sorryFree : True := trivial
"""


class TestScanner:
    def test_comment_only_occurrence_is_masked(self):
        assert scan_forbidden_text("-- sorry\n") == []

    def test_clean_listing_has_no_occurrences(self):
        assert scan_forbidden_text(CLEAN_LISTING) == []

    def test_axiom_declaration_is_flagged(self):
        hits = scan_forbidden_text("axiom bad : False\n", "f.lean")
        assert hits == [("axiom", "f.lean", 1)]

    def test_line_numbers_are_reported(self):
        text = "theorem a : True := trivial\n\ntheorem b : True := by\n  sorry\n"
        assert scan_forbidden_text(text) == [("sorry", "<memory>", 4)]

    def test_identifiers_containing_tokens_not_flagged(self):
        text = "def sorryFree := unsorry admitted axiom_of_choice sorry' x\n"
        assert scan_forbidden_text(text) == []

    def test_nested_block_comments(self):
        text = "/- a /- sorry -/ admit -/ sorry\n"
        assert scan_forbidden_text(text) == [("sorry", "<memory>", 1)]

    def test_string_literals_with_escapes(self):
        text = 'def x := "a\\" sorry" \ndef y := admit\n'
        assert scan_forbidden_text(text) == [("admit", "<memory>", 2)]

    def test_unterminated_comment_masks_to_eof(self):
        assert scan_forbidden_text("/- sorry admit") == []

    def test_all_three_tokens(self):
        text = "sorry admit axiom\n"
        assert [t for t, _, _ in scan_forbidden_text(text)] == ["sorry", "admit", "axiom"]

    def test_agrees_with_character_oracle_on_generated_files(self):
        rng = random.Random(987654)
        for _ in range(250):
            text = random_lean_file(rng)
            assert scan_forbidden_text(text) == oracle_scan(text), text


class TestNormalization:
    def test_collapses_whitespace(self):
        assert normalize_signature("theorem  t :\n  True") == "theorem t : True"

    @given(st.text(alphabet=" \n\tabα:(){}", max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, text):
        once = normalize_signature(text)
        assert normalize_signature(once) == once


MAIN_THEOREM = """import Mathlib.GroupTheory.GroupAction.MultipleTransitivity

namespace BurnsidePrimeDegreeTheorem
open MulAction

theorem MainTheorem
    {α : Type*} [Fintype α]
    {G : Subgroup (Equiv.Perm α)}
    (htrans : IsPretransitive G α)
    (hp : (Fintype.card α).Prime) :
    IsMultiplyPretransitive G α 2 ∨
      ∃ N : Subgroup G, N.Normal ∧ IsPretransitive N α ∧
        ∀ a : α, MulAction.stabilizer N a = ⊥ := by
  sorry

end BurnsidePrimeDegreeTheorem
"""


MAIN_THEOREM_SIGNATURE = (
    "theorem MainTheorem {α : Type*} [Fintype α] {G : Subgroup (Equiv.Perm α)} "
    "(htrans : IsPretransitive G α) (hp : (Fintype.card α).Prime) : "
    "IsMultiplyPretransitive G α 2 ∨ ∃ N : Subgroup G, N.Normal ∧ IsPretransitive N α ∧ "
    "∀ a : α, MulAction.stabilizer N a = ⊥")


class TestExtractSignature:
    """The header of one declaration in one text, through the audit's lookup."""

    def test_one_liner(self):
        sig = find_signature({"t.lean": "theorem t : True := trivial\n"}, "t")
        assert sig.name == "t"
        assert sig.normalized == "theorem t : True"

    def test_multiline_theorem_with_binders(self):
        sig = find_signature({"m.lean": MAIN_THEOREM}, "MainTheorem")
        assert sig.name == "MainTheorem"
        assert sig.normalized == MAIN_THEOREM_SIGNATURE

    def test_binder_colons_do_not_split_the_header(self):
        # The split at the first top-level colon shows as the spaces around it.
        text = "theorem t (x : Nat) [inst : Inhabited Nat] {y : Nat}:x = x := rfl\n"
        sig = find_signature({"t.lean": text}, "t")
        assert sig.normalized == "theorem t (x : Nat) [inst : Inhabited Nat] {y : Nat} : x = x"

    @pytest.mark.parametrize("text, normalized", [
        ("def t(x : Nat): Nat := x\n", "def t (x : Nat) : Nat"),
        ("theorem t :\n  := rfl\n", "theorem t :"),
    ], ids=["binders-against-the-name", "empty-conclusion"])
    def test_the_parts_of_the_header_are_joined_by_single_spaces(self, text, normalized):
        assert find_signature({"t.lean": text}, "t").normalized == normalized

    def test_an_instance_is_found_by_the_name_after_its_priority(self):
        text = "instance (priority := 100) foo : Inhabited Nat := ⟨0⟩\n"
        sig = find_signature({"i.lean": text}, "foo")
        assert sig.name == "foo"
        assert sig.normalized == "instance foo : Inhabited Nat"
        assert text[sig.header_end:] == ":= ⟨0⟩\n"

    def test_missing_declaration(self):
        with pytest.raises(DeclNotFound):
            find_signature({"o.lean": "theorem other : True := trivial\n"}, "t")

    def test_ambiguous_declaration(self):
        text = "theorem t : True := trivial\ntheorem t : True := trivial\n"
        with pytest.raises(ParseAmbiguity, match="multiple declarations named t in t.lean"):
            find_signature({"t.lean": text}, "t")

    def test_commented_out_declaration_not_matched(self):
        text = "-- theorem t : False := trivial\ntheorem t : True := trivial\n"
        assert find_signature({"t.lean": text}, "t").normalized == "theorem t : True"

    def test_name_prefix_is_not_a_match(self):
        text = "theorem t2 : False := trivial\ntheorem t : True := trivial\n"
        assert find_signature({"t.lean": text}, "t").normalized == "theorem t : True"

    def test_shipped_replay_input_extracts(self):
        text = (BURNSIDE_DIR / "input.lean").read_text(encoding="utf-8")
        sig = find_signature({"input.lean": text}, "MainTheorem")
        assert sig.name == "MainTheorem"
        assert sig.normalized == MAIN_THEOREM_SIGNATURE


class TestFindSignature:
    """The audit's one rule for its target: the one declaration of the bare name among
    all the texts, whichever file or namespace holds it."""

    def test_the_one_declaration_is_found_in_any_file(self):
        sig = find_signature({"A.lean": "theorem a : t = t := rfl\n",
                              "B.lean": "namespace N\ntheorem t : True := trivial\nend N\n"}, "t")
        assert (sig.qualified_name, sig.normalized) == ("N.t", "theorem t : True")

    def test_two_in_one_file_name_that_file(self):
        texts = {"A.lean": "theorem a : True := trivial\n",
                 "B.lean": "theorem t : True := trivial\nnamespace N\ntheorem t : True := trivial\n"}
        with pytest.raises(ParseAmbiguity, match=r"^multiple declarations named t in B\.lean$"):
            find_signature(texts, "t")

    def test_two_across_files_name_each_file(self):
        texts = {"A.lean": "namespace Evil\ntheorem t : True := trivial\nend Evil\n",
                 "B.lean": "theorem t : 1 = 1 ∨ True := Or.inr trivial\n"}
        with pytest.raises(ParseAmbiguity,
                           match=r"^multiple declarations named t in A\.lean, B\.lean$"):
            find_signature(texts, "t")

    def test_a_use_or_a_comment_is_no_declaration(self):
        texts = {"A.lean": "-- theorem t : True := trivial\ntheorem a : True := t\n"}
        with pytest.raises(DeclNotFound, match=r"^declaration t not found$"):
            find_signature(texts, "t")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_the_target_is_found_iff_exactly_one_was_planted(self, seed):
        rng = random.Random(seed)
        texts = {f"Proofws/F{i}.lean": random_lean_file(rng) for i in range(rng.randint(1, 4))}
        planted = plant_declarations(rng, texts, "Tgt", rng.randint(0, 3))
        try:
            sig = find_signature(texts, "Tgt")
        except DeclNotFound:
            assert planted == []
        except ParseAmbiguity as exc:
            assert len(planted) > 1
            files = [rel for rel in texts if rel in {rel for rel, _ in planted}]
            assert str(exc) == f"multiple declarations named Tgt in {', '.join(files)}"
        else:
            assert [sig.qualified_name] == [qualified for _, qualified in planted]
            assert sig.normalized == "theorem Tgt : True"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_an_input_is_refused_by_the_same_rule(self, seed):
        """The input's target goes through this lookup too: an input is refused iff it
        declares a namesake of the target, and the refusal carries the lookup's text."""
        rng = random.Random(seed)
        files = {"<input>": "theorem Tgt : True := by sorry\n" + random_lean_file(rng)}
        planted = plant_declarations(rng, files, "Tgt", rng.randint(0, 2))
        try:
            anchor = find_anchor(files["<input>"])
        except InputError as exc:
            assert planted
            with pytest.raises(ParseAmbiguity) as ambiguity:
                find_signature(files, "Tgt")
            assert str(exc).endswith(str(ambiguity.value))
        else:
            assert not planted
            assert anchor.decl_name == "Tgt"


def _ws_with(tmp_path, sources: dict[str, str]) -> Workspace:
    ws = Workspace(root_dir=tmp_path)
    for node_id, text in sources.items():
        ws.write_node_source(node_id, text)
    return ws


class TestSignatureMatch:
    """The audit's header comparison, through audit_verdict."""

    ANCHOR = "theorem t (x : Nat) : x = x"

    @staticmethod
    def audit(ws, anchor=ANCHOR):
        return audit_verdict(ws, anchor, "t", SimVerifier())

    def test_reformatted_whitespace_matches(self, tmp_path):
        ws = _ws_with(tmp_path, {"t": "theorem t   (x : Nat) :\n    x = x := rfl\n"})
        report = self.audit(ws, "theorem t (x : Nat)\n  : x = x")
        assert report.signature_match and report.passed

    def test_weakened_conclusion_rejected(self, tmp_path):
        ws = _ws_with(tmp_path, {"t": "theorem t (x : Nat) : x = x := rfl\n"})
        report = self.audit(ws, "theorem t (x : Nat) : x = x ∧ 0 ≤ x")
        assert not report.signature_match and not report.passed

    def test_renamed_declaration_rejected(self, tmp_path):
        ws = _ws_with(tmp_path, {"t": "theorem renamed (x : Nat) : x = x := rfl\n"})
        report = self.audit(ws)
        assert not report.signature_match and not report.passed
        assert report.detail == "target not found: declaration t not found"

    def test_an_instance_priority_is_not_part_of_the_header(self, tmp_path):
        ws = _ws_with(tmp_path, {"t": "instance (priority := 5) t : Inhabited Nat := ⟨0⟩\n"})
        report = self.audit(ws, "instance t : Inhabited Nat")
        assert report.signature_match and report.passed

    def test_a_workspace_without_the_target_is_rejected(self, tmp_path):
        for ws in (Workspace(root_dir=tmp_path),
                   _ws_with(tmp_path, {"h": "theorem h (x : Nat) : x = x := rfl\n"})):
            report = self.audit(ws)
            assert not report.signature_match and not report.passed
            assert report.detail == "target not found: declaration t not found"


RULES_TEXT = """simrules v1
# demo table
rule clean-v3
clean true
end
rule classical
clean true
axioms propext Quot.sound Classical.choice
end
rule has-sorry
clean false
sorries 3 9
axioms sorryAx
end
rule broken
clean false
diagnostics error: kernel rejected the proof
end
"""


class TestSimVerifier:
    def test_rule_table_parses(self):
        rules = parse_sim_rules(RULES_TEXT)
        assert rules["clean-v3"] == SimRule(True, (), "", frozenset())
        assert rules["classical"].axioms == DEFAULT_PERMITTED_AXIOMS
        assert rules["has-sorry"].sorry_lines == (3, 9)

    def test_bad_rule_table_rejected(self):
        with pytest.raises(SimRuleError):
            parse_sim_rules("nope\n")
        with pytest.raises(SimRuleError):
            parse_sim_rules("simrules v1\nrule x\nwhatever y\nend\n")

    def test_keyed_source_builds_clean(self, tmp_path):
        verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
        ws = _ws_with(tmp_path, {"a": "-- sim: key clean-v3\ntheorem a : True := trivial\n"})
        report = verifier.build(ws)
        assert report.clean and report.compiled
        assert report.sorry_sites == ()

    def test_bare_sorry_reports_one_site(self, tmp_path):
        verifier = SimVerifier()
        ws = _ws_with(tmp_path, {"a": "theorem a : True := by\n  sorry\n"})
        report = verifier.build(ws)
        assert not report.clean and report.compiled
        assert len(report.sorry_sites) == 1
        assert report.sorry_sites[0][1] == 2

    def test_error_directive_fails_the_build(self, tmp_path):
        verifier = SimVerifier()
        ws = _ws_with(tmp_path, {"a": "-- sim: error type mismatch\ntheorem a : True := trivial\n"})
        report = verifier.build(ws)
        assert not report.compiled and not report.clean
        assert "type mismatch" in report.diagnostics

    def test_unknown_key_fails_the_build(self, tmp_path):
        verifier = SimVerifier()
        ws = _ws_with(tmp_path, {"a": "-- sim: key ghost\n"})
        report = verifier.build(ws)
        assert not report.compiled
        assert "unknown sim rule key" in report.diagnostics

    def test_reports_aggregate_across_files(self, tmp_path):
        verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
        ws = _ws_with(tmp_path, {
            "a": "-- sim: key clean-v3\n",
            "b": "theorem b : True := by\n  sorry\n",
        })
        report = verifier.build(ws)
        assert not report.clean and report.compiled
        assert len(report.sorry_sites) == 1

    def test_audit_axioms_from_key_and_directive(self, tmp_path):
        verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
        ws = _ws_with(tmp_path, {
            "a": "-- sim: key classical\ntheorem a : True := trivial\n",
            "b": "-- sim: axioms myAx\ntheorem b : True := trivial\n",
        })
        assert verifier.audit_axioms(ws, "a", workspace_texts(ws)) == (DEFAULT_PERMITTED_AXIOMS
                                                                       | {"myAx"})

    def test_audit_marks_surviving_sorries(self, tmp_path):
        verifier = SimVerifier()
        ws = _ws_with(tmp_path, {"a": "theorem a : True := by\n  sorry\n"})
        assert verifier.audit_axioms(ws, "a", workspace_texts(ws)) == {"sorryAx"}

    @pytest.mark.parametrize("text, literal", [
        ("theorem a : True := trivial\n/- open", "comment"),
        ('theorem a : True := trivial\ndef s := "open', "string literal"),
        ("-- sim: key clean-v3\n/- open", "comment"),
    ])
    def test_an_unterminated_literal_fails_the_build(self, tmp_path, text, literal):
        verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
        report = verifier.build(_ws_with(tmp_path, {"a": text}))
        assert not report.compiled and not report.clean
        assert report.diagnostics == f"Proofws/a.lean: error: unterminated {literal}"

    def test_directive_inside_a_block_comment_is_ignored(self, tmp_path):
        ws = _ws_with(tmp_path, {"a": "/-\n-- sim: error boom\n-/\ntheorem a : True := trivial\n"})
        assert SimVerifier().build(ws).clean

    def test_same_workspace_same_report(self, tmp_path):
        verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
        ws = _ws_with(tmp_path, {"a": "-- sim: key has-sorry\n"})
        assert verifier.build(ws) == verifier.build(ws)


GOOD_TARGET = "-- sim: key classical\ntheorem t (x : Nat) : x = x := rfl\n"
ANCHOR_SIG = "theorem t (x : Nat) : x = x"


def _audit(tmp_path, sources, permitted=DEFAULT_PERMITTED_AXIOMS, sig=ANCHOR_SIG):
    verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
    ws = _ws_with(tmp_path, sources)
    return audit_verdict(ws, sig, "t", verifier, permitted)


class TestAuditVerdict:
    def test_clean_matching_classical_workspace_passes(self, tmp_path):
        report = _audit(tmp_path, {"t": GOOD_TARGET})
        assert report.passed and report.signature_match
        assert report.axioms_used == DEFAULT_PERMITTED_AXIOMS

    def test_sorry_axiom_fails(self, tmp_path):
        report = _audit(tmp_path, {"t": GOOD_TARGET,
                                   "h": "-- sim: axioms sorryAx\ntheorem h : True := trivial\n"})
        assert not report.passed
        assert "sorryAx" in report.detail

    def test_extra_axiom_fails(self, tmp_path):
        report = _audit(tmp_path, {"t": GOOD_TARGET,
                                   "h": "-- sim: axioms myAx\ntheorem h : True := trivial\n"})
        assert not report.passed

    def test_forbidden_token_fails(self, tmp_path):
        report = _audit(tmp_path, {"t": GOOD_TARGET,
                                   "h": "axiom bad : False\n"})
        assert not report.passed
        assert report.forbidden_occurrences[0][0] == "axiom"

    def test_signature_mismatch_fails(self, tmp_path):
        report = _audit(tmp_path, {"t": "-- sim: key classical\ntheorem t (x : Nat) : True := trivial\n"})
        assert not report.passed and not report.signature_match

    def test_tightened_permitted_set_fails_classical_proof(self, tmp_path):
        report = _audit(tmp_path, {"t": GOOD_TARGET}, permitted=frozenset({"propext"}))
        assert not report.passed

    @pytest.mark.parametrize("literal", ["def q : Char := '\"'", 'def s : String := r#"a"b"#'])
    def test_quote_inside_a_literal_does_not_hide_a_sorry(self, tmp_path, literal):
        ws = _ws_with(tmp_path, {"Main": literal + "\ntheorem Main : True := sorry\n"})
        report = audit_verdict(ws, "theorem Main : True", "Main", SimVerifier())
        assert report.signature_match
        assert report.forbidden_occurrences == (("sorry", "Proofws/Main.lean", 2),)
        assert "sorryAx" in report.axioms_used
        assert not report.passed

    @pytest.mark.parametrize("helper", [
        "-- sim: error boom\ntheorem h : True := trivial\n",
        "/- unterminated\ntheorem Main2 : True := sorry\n",
        'def s := "unterminated\ntheorem Main2 : True := sorry\n',
    ], ids=["error-directive", "unterminated-comment", "unterminated-string"])
    def test_a_file_that_does_not_build_fails_the_axiom_audit(self, tmp_path, helper):
        report = _audit(tmp_path, {"t": GOOD_TARGET, "h": helper})
        assert report.signature_match and not report.forbidden_occurrences
        assert not report.passed
        assert report.detail.startswith("axiom audit failed: workspace does not build: Proofws/h.lean")

    def test_an_interpolated_sorry_fails_the_audit(self, tmp_path):
        report = _audit(tmp_path, {"t": GOOD_TARGET,
                                   "h": 'def s : String := s!"{(sorry : Nat)}"\n'})
        assert report.forbidden_occurrences == (("sorry", "Proofws/h.lean", 1),)
        assert "sorryAx" in report.axioms_used
        assert not report.passed

    def test_kernel_bypass_option_fails(self, tmp_path):
        report = _audit(tmp_path, {"t": "set_option debug.skipKernelTC true in\n" + GOOD_TARGET})
        assert report.forbidden_occurrences == (("debug.skipKernelTC", "Proofws/t.lean", 1),)
        assert not report.passed

    def test_native_decide_axiom_listing_fails_the_default_set(self, tmp_path):
        class CapturedDriver(RealVerifier):
            def _run(self, ws, args):
                return subprocess.CompletedProcess(
                    args, 0, "'t' depends on axioms: [propext, Lean.ofReduceBool]\n", "")

        ws = _ws_with(tmp_path, {"t": GOOD_TARGET})
        report = audit_verdict(ws, ANCHOR_SIG, "t", CapturedDriver(), DEFAULT_PERMITTED_AXIOMS)
        assert report.axioms_used == {"propext", "Lean.ofReduceBool"}
        assert report.signature_match and not report.forbidden_occurrences
        assert not report.passed
        assert "Lean.ofReduceBool" in report.detail


def _assembled_from_disk(root: Path) -> Workspace:
    """A workspace over every .lean file under ``root``, as ``proofloop audit`` builds it."""
    ws = Workspace(root_dir=root)
    for path in sorted(root.rglob("*.lean")):
        rel = str(path.relative_to(root))
        ws.node_files[rel] = rel
    return ws


CACHE_RULES = parse_sim_rules(RULES_TEXT + "rule rejected\nclean false\nend\n")
CACHE_POOL = ("a", "b", "c", "d")
HAND_POOL = ("p", "q")
CACHE_DIRECTIVES = (
    "-- sim: key clean-v3\n", "-- sim: key classical\n", "-- sim: key has-sorry\n",
    "-- sim: key broken\n", "-- sim: key rejected\n", "-- sim: key ghost\n",
    "-- sim: error type mismatch\n", "-- sim: axioms myAx\n",
)


def _cache_source(rng: random.Random) -> str:
    text = random_lean_file(rng)
    if rng.random() < 0.5:
        text = rng.choice(CACHE_DIRECTIVES) + text
    return text


def recorded_takes(monkeypatch) -> list[str]:
    """The node id of each file a sim build accounts for, in order, from now on."""
    taken: list[str] = []
    real_take = SimVerifier._take

    def recording_take(verifier, ws, node_id, text):
        taken.append(node_id)
        return real_take(verifier, ws, node_id, text)

    monkeypatch.setattr(SimVerifier, "_take", recording_take)
    return taken


def ws_copy(ws: Workspace, root: Path) -> Workspace:
    """A workspace at ``root`` whose files are ``ws``'s files on disk, placed by hand."""
    copy = Workspace(root_dir=root)
    for node_id, rel in ws.node_files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ws.root_dir / rel, root / rel)
        copy.node_files[node_id] = rel
    return copy


class TestBuildCache:
    """One long-lived verifier must agree with a fresh one reading the disk."""

    # One batch of workspace changes between builds: writes (of a new text, or of one
    # written at the id before) and removals through the workspace, and edits made on
    # disk behind it to a file it wrote.
    OPS = st.lists(st.tuples(st.sampled_from(("write", "write-back", "remove", "edit-disk")),
                             st.sampled_from(CACHE_POOL + HAND_POOL), st.integers(0, 2**32 - 1)),
                   max_size=3)

    @given(st.lists(st.sampled_from(HAND_POOL), unique=True), st.integers(0, 2**32 - 1),
           st.lists(OPS, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_incremental_build_matches_fresh_build_from_disk(self, hand_ids, hand_seed, batches):
        """After each batch, the long-lived verifier's report equals a fresh verifier's
        over a workspace that holds what the build must see: the text on disk for each
        file placed by hand before the first build, and the text the workspace wrote for
        each file it wrote."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "ws"
            ws = Workspace(root_dir=root)
            verifier = SimVerifier(CACHE_RULES)
            seen: dict[str, str] = {}  # rel -> the text the build must see
            placed: set[str] = set()  # the ids whose file was placed by hand
            history: dict[str, list[str]] = {}  # id -> the texts written at it

            def on_disk(node_id, text):
                path = root / ws._rel_path(node_id)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
                return ws._rel_path(node_id)

            rng = random.Random(hand_seed)
            for hand_id in hand_ids:
                text = _cache_source(rng)
                rel = ws.node_files[hand_id] = on_disk(hand_id, text)
                seen[rel] = text
                placed.add(hand_id)
            for ops in [[], *batches]:
                for op, node_id, seed in ops:
                    rng = random.Random(seed)
                    if op == "write-back" and history.get(node_id):
                        text = rng.choice(history[node_id])
                    else:
                        text = _cache_source(rng)
                    if op in ("write", "write-back"):
                        history.setdefault(node_id, []).append(text)
                        ws.write_node_source(node_id, text)
                        seen[ws.node_files[node_id]] = text
                        placed.discard(node_id)
                    elif op == "remove" and node_id in ws.node_files:
                        seen.pop(ws.node_files[node_id])
                        ws.remove_node_source(node_id)
                        placed.discard(node_id)
                    elif op == "edit-disk" and node_id in ws.node_files.keys() - placed:
                        on_disk(node_id, text)
                fresh = Path(tmp) / "fresh"
                shutil.rmtree(fresh, ignore_errors=True)
                for rel, text in seen.items():
                    (fresh / rel).parent.mkdir(parents=True, exist_ok=True)
                    (fresh / rel).write_text(text, encoding="utf-8")
                fresh.mkdir(exist_ok=True)
                expected = SimVerifier(CACHE_RULES).build(_assembled_from_disk(fresh))
                assert verifier.build(ws) == expected

    def test_a_build_takes_exactly_the_dirty_files_and_those_placed_by_hand(self, tmp_path,
                                                                            monkeypatch):
        """Each build accounts for the files written or removed since the last one, each
        once; the first build also reads the files placed by hand from disk.  No other
        file is visited."""
        taken = recorded_takes(monkeypatch)
        (tmp_path / "Proofws").mkdir()
        ws = Workspace(root_dir=tmp_path)
        for node_id in ("p", "q"):
            (tmp_path / "Proofws" / f"{node_id}.lean").write_text("theorem p : True := trivial\n")
            ws.node_files[node_id] = f"Proofws/{node_id}.lean"
        for node_id in ("a", "b", "c"):
            ws.write_node_source(node_id, "theorem a : True := trivial\n")
        verifier = SimVerifier()
        steps = [
            (lambda: None, ["a", "b", "c", "p", "q"]),
            (lambda: (ws.write_node_source("b", "theorem b : True := by\n  sorry\n"),
                      ws.remove_node_source("c")), ["b", "c"]),
            (lambda: None, []),
            (lambda: ws.write_node_source("p", "theorem p : True := by\n  sorry\n"), ["p"]),
            (lambda: ws.remove_node_source("q"), ["q"]),
        ]
        for i, (change, expected) in enumerate(steps):
            change()
            taken.clear()
            report = verifier.build(ws)
            assert sorted(taken) == expected
            assert report == SimVerifier().build(ws_copy(ws, tmp_path / f"copy{i}"))

    def test_a_verifier_handed_another_workspace_builds_it_in_full(self, tmp_path, monkeypatch):
        """A workspace the verifier did not build last is built in full, once, and equals
        a fresh verifier's.  Its files whose written text another build took are read
        from disk."""
        taken = recorded_takes(monkeypatch)
        first = _ws_with(tmp_path / "one", {"a": "theorem a : True := by\n  sorry\n",
                                            "b": "theorem b : True := trivial\n"})
        second = _ws_with(tmp_path / "two", {"c": "theorem c : True := trivial\n",
                                             "d": "-- sim: error type mismatch\n"})
        verifier, other = SimVerifier(), SimVerifier()
        steps = [(first, verifier, ["a", "b"]), (first, verifier, []),
                 (second, other, ["c", "d"]), (second, verifier, ["c", "d"]),
                 (second, verifier, []), (first, verifier, ["a", "b"])]
        for i, (ws, verifying, expected) in enumerate(steps):
            taken.clear()
            report = verifying.build(ws)
            assert sorted(taken) == expected
            assert report == SimVerifier().build(ws_copy(ws, tmp_path / f"copy{i}"))

    def test_unwritten_files_are_read_from_disk(self, tmp_path):
        """A workspace assembled from disk is read in full; one assembled again after an
        edit reads the new text, although the cache holds the old text at that path."""
        verifier = SimVerifier()
        (tmp_path / "Proofws").mkdir()
        (tmp_path / "Proofws" / "a.lean").write_text("theorem a : True := trivial\n")
        assert verifier.build(_assembled_from_disk(tmp_path)).clean
        (tmp_path / "Proofws" / "a.lean").write_text("theorem a : True := by\n  sorry\n")
        report = verifier.build(_assembled_from_disk(tmp_path))
        assert report.sorry_sites == (("Proofws/a.lean", 2),)


class TestAuditReadsDisk:
    """Edits made behind the harness must fail the audit, whatever the build cache holds."""

    TARGET = "theorem t (x : Nat) : x = x := rfl\n"

    def solved(self, tmp_path):
        verifier = SimVerifier(parse_sim_rules(RULES_TEXT))
        ws = _ws_with(tmp_path, {"t": self.TARGET, "h": "theorem h : True := trivial\n"})
        assert verifier.build(ws).clean
        assert audit_verdict(ws, ANCHOR_SIG, "t", verifier).passed
        return verifier, ws

    def test_proof_swapped_for_sorry_on_disk(self, tmp_path):
        verifier, ws = self.solved(tmp_path)
        target = ws.node_files["t"]
        (tmp_path / target).write_text(self.TARGET.replace("rfl", "sorry"))
        assert verifier.build(ws).clean  # the build evaluates the text the workspace wrote
        report = audit_verdict(ws, ANCHOR_SIG, "t", verifier)
        assert not report.passed
        assert report.forbidden_occurrences == (("sorry", target, 1),)
        assert "sorryAx" in verifier.audit_axioms(ws, "t", workspace_texts(ws))

    def test_axiom_appended_on_disk(self, tmp_path):
        verifier, ws = self.solved(tmp_path)
        helper = tmp_path / ws.node_files["h"]
        helper.write_text(helper.read_text() + "axiom bad : False\n")
        assert verifier.build(ws).clean
        report = audit_verdict(ws, ANCHOR_SIG, "t", verifier)
        assert not report.passed
        assert report.forbidden_occurrences == (("axiom", ws.node_files["h"], 2),)

    def test_the_audit_evaluates_through_the_build_cache(self, tmp_path, monkeypatch):
        """After a clean build the audit evaluates no file; after an edit on disk it
        evaluates exactly the edited file, and fails on it."""
        evaluated: list[str] = []
        real_build_file = SimVerifier._build_file

        def counting_build_file(verifier, rel, text):
            evaluated.append(rel)
            return real_build_file(verifier, rel, text)

        monkeypatch.setattr(SimVerifier, "_build_file", counting_build_file)
        verifier, ws = self.solved(tmp_path)
        evaluated.clear()
        assert audit_verdict(ws, ANCHOR_SIG, "t", verifier).passed
        assert evaluated == []
        helper = tmp_path / ws.node_files["h"]
        helper.write_text("-- sim: error type mismatch\n")
        assert verifier.build(ws).clean
        assert evaluated == []
        report = audit_verdict(ws, ANCHOR_SIG, "t", verifier)
        assert not report.passed
        assert "axiom audit failed" in report.detail
        assert evaluated == [ws.node_files["h"]]


LAKE_OUTPUT = """info: building Proofws
warning: ././Proofws/Lem_A.lean:3:0: declaration uses 'sorry'
⚠ [2/4] Built Proofws.Lem_A
error: Proofws/Lem_B.lean:5:10: unknown identifier 'frobnicate'
error: Lean exited with code 1
"""

AXIOM_OUTPUT_SOME = "'BurnsidePrimeDegreeTheorem.MainTheorem' depends on axioms: [propext, Classical.choice, Quot.sound]\n"
AXIOM_OUTPUT_NONE = "'tiny' does not depend on any axioms\n"


class TestRealModeParsers:
    def test_build_output_splits_errors_and_sorries(self):
        errors, sites = parse_build_output(LAKE_OUTPUT)
        assert sites == [("././Proofws/Lem_A.lean", 3)]
        assert len(errors) == 2
        assert "unknown identifier" in errors[0]

    def test_axiom_listing(self):
        axioms = parse_axioms_output(AXIOM_OUTPUT_SOME, "BurnsidePrimeDegreeTheorem.MainTheorem")
        assert axioms == {"propext", "Classical.choice", "Quot.sound"}

    def test_axiom_listing_empty(self):
        assert parse_axioms_output(AXIOM_OUTPUT_NONE, "tiny") == set()

    def test_axiom_listing_missing_decl(self):
        from proofloop.leanenv import DriverFail

        with pytest.raises(DriverFail):
            parse_axioms_output("nothing useful\n", "t")

    def test_axiom_listing_matches_the_exact_name(self):
        output = ("'Bar.main' depends on axioms: [propext]\n"
                  "'Foo.main' depends on axioms: [propext, sorryAx]\n")
        assert parse_axioms_output(output, "Foo.main") == {"propext", "sorryAx"}
        assert parse_axioms_output(output, "Bar.main") == {"propext"}

    def test_axiom_listing_for_a_last_segment_only_is_missing(self):
        from proofloop.leanenv import DriverFail

        with pytest.raises(DriverFail):
            parse_axioms_output(AXIOM_OUTPUT_SOME, "MainTheorem")
        with pytest.raises(DriverFail):
            parse_axioms_output("'Foo.tiny' does not depend on any axioms\n", "tiny")

    @pytest.mark.parametrize("output, axioms", [
        ("'Main'' depends on axioms: [propext]\n", {"propext"}),
        ("'Main'' does not depend on any axioms\n", set()),
    ])
    def test_a_primed_name_reads_its_own_listing(self, output, axioms):
        assert parse_axioms_output(output, "Main'") == axioms
        with pytest.raises(DriverFail):  # a listing of Main' is none for Main
            parse_axioms_output(output, "Main")

    @pytest.mark.parametrize("output", ["'Main' depends on axioms: [propext]\n",
                                        "'Main' does not depend on any axioms\n"])
    def test_an_unprimed_listing_is_none_for_the_primed_name(self, output):
        with pytest.raises(DriverFail):
            parse_axioms_output(output, "Main'")

    def test_primed_and_unprimed_listings_side_by_side(self):
        output = ("'Main' depends on axioms: [propext]\n"
                  "'Main'' depends on axioms: [propext, sorryAx]\n"
                  "'Main''' does not depend on any axioms\n")
        assert parse_axioms_output(output, "Main") == {"propext"}
        assert parse_axioms_output(output, "Main'") == {"propext", "sorryAx"}
        assert parse_axioms_output(output, "Main''") == set()

    def test_a_quoted_word_earlier_on_the_line_is_no_name(self):
        output = "info: the 'x' of 'Main' depends on axioms: [propext]\n"
        assert parse_axioms_output(output, "Main") == {"propext"}

    def test_a_guillemet_name_may_hold_spaces(self):
        output = "'A.«my thm»' depends on axioms: [propext]\n"
        assert parse_axioms_output(output, "A.«my thm»") == {"propext"}

    def test_two_listings_for_one_name_are_ambiguous(self):
        from proofloop.leanenv import DriverFail

        with pytest.raises(DriverFail):
            parse_axioms_output("'t' depends on axioms: [propext]\n"
                                "'t' does not depend on any axioms\n", "t")


@pytest.mark.skipif(shutil.which("lake") is None, reason="Lean toolchain not on PATH")
class TestRealToolchainSmoke:
    def test_one_line_theorem_builds_clean_with_no_axioms(self, tmp_path):
        verifier = RealVerifier(build_timeout=600)
        ws = Workspace(root_dir=tmp_path / "ws")
        verifier.init_workspace(ws)
        ws.write_node_source("tiny", "theorem tiny : 1 = 1 := rfl\n")
        report = verifier.build(ws)
        assert report.clean, report.diagnostics
        assert verifier.audit_axioms(ws, "tiny", workspace_texts(ws)) == set()


class TestTokenizerCoversMaskingCases:
    """The cases the comment/string masker was tested on, on the tokenizer."""

    def test_tokens_cover_the_text_and_keep_line_numbers(self):
        text = "a -- c\nb /- x\ny -/ z \"s\" w\n"
        tokens = list(tokenize(text))
        assert "".join(token for _, token, _ in tokens) == text
        assert [(kind, token, line) for kind, token, line in tokens if kind != OTHER] == [
            (IDENT, "a", 1), (COMMENT, "-- c", 1), (IDENT, "b", 2), (BLOCK, "/- x\ny -/", 2),
            (IDENT, "z", 3), (STRING, '"s"', 3), (IDENT, "w", 3)]

    def test_strings_and_comments_are_told_apart(self):
        text = 'def x := "keep" -- drop\n'
        kinds = {token: kind for kind, token, _ in tokenize(text)}
        assert kinds['"keep"'] == STRING
        assert kinds["-- drop"] == COMMENT


# Ids that are Lean module names, some that the old sanitising map sent to a
# shared file, and any other non-blank text.
node_ids = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.text(alphabet="a1N_-.é", min_size=1, max_size=3),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
            min_size=1, max_size=8),
    st.text(alphabet="a-é", min_size=95, max_size=205),  # one or two path parts
).filter(lambda node_id: not any(ch.isspace() for ch in node_id))


class TestWorkspaceFiles:
    def test_module_name_ids_keep_their_file_name(self, tmp_path):
        ws = Workspace(root_dir=tmp_path)
        for node_id in ("Thm_MainTheorem", "Lem_A", "_x", "a1"):
            ws.write_node_source(node_id, "")
            assert ws.node_files[node_id] == f"Proofws/{node_id}.lean"

    def test_other_ids_are_hex_encoded_in_their_own_directory(self, tmp_path):
        ws = Workspace(root_dir=tmp_path)
        ws.write_node_source("a-b", "")
        ws.write_node_source("1x", "")
        assert ws.node_files == {"a-b": "Proofws/Encoded/x612d62.lean",
                                 "1x": "Proofws/Encoded/x3178.lean"}

    def test_a_long_id_is_split_into_path_parts_of_200_hex_digits(self, tmp_path):
        ws = Workspace(root_dir=tmp_path)
        ws.write_node_source("a-" * 70, "-- long\n")  # 140 bytes, 280 hex digits
        hexed = ("a-" * 70).encode().hex()
        assert ws.node_files["a-" * 70] == f"Proofws/Encoded/x{hexed[:200]}/x{hexed[200:]}.lean"
        assert (tmp_path / ws.node_files["a-" * 70]).read_text() == "-- long\n"

    @pytest.mark.parametrize("first, second", [("a-b", "a_b"), ("a.b", "a_b"), ("a-b", "a.b"),
                                               ("1x", "N1x")])
    def test_ids_the_old_map_merged_keep_their_own_files(self, tmp_path, first, second):
        ws = Workspace(root_dir=tmp_path)
        ws.write_node_source(first, "-- first\n")
        ws.write_node_source(second, "-- second\n")
        assert ws.node_files[first] != ws.node_files[second]
        ws.remove_node_source(first)
        assert (tmp_path / ws.node_files[second]).read_text() == "-- second\n"

    @given(node_ids, node_ids)
    @settings(max_examples=200, deadline=None)
    def test_distinct_ids_get_distinct_files(self, first, second):
        with tempfile.TemporaryDirectory() as tmp:
            ws = Workspace(root_dir=Path(tmp))
            ws.write_node_source(first, "-- first\n")
            ws.write_node_source(second, "-- second\n")
            if first != second:
                assert ws.node_files[first] != ws.node_files[second]
                assert (Path(tmp) / ws.node_files[first]).read_text() == "-- first\n"
            assert (Path(tmp) / ws.node_files[second]).read_text() == "-- second\n"


BURNSIDE_SOLVED = (BURNSIDE_DIR / "input.lean").read_text(encoding="utf-8").replace(
    "  sorry", "  exact dichotomy_core htrans hp")


class TestQualifiedName:
    @pytest.mark.parametrize("text, name, qualified", [
        (BURNSIDE_SOLVED, "MainTheorem", "BurnsidePrimeDegreeTheorem.MainTheorem"),
        ("theorem t : True := trivial\n", "t", "t"),
        ("namespace A.B\ntheorem t : True := trivial\nend A.B\n", "t", "A.B.t"),
        ("namespace A\nnamespace B\nend B\ntheorem t : True := trivial\nend A\n", "t", "A.t"),
        ("namespace A.B\nend B\ntheorem t : True := trivial\n", "t", "A.t"),
        ("namespace A\nsection S\ntheorem t : True := trivial\nend S\nend A\n", "t", "A.t"),
        ("namespace A\nend A\ntheorem t : True := trivial\n", "t", "t"),
        ("section\nnamespace A\nend A\nend\ntheorem t : True := trivial\n", "t", "t"),
        ("namespace A\nmutual\ntheorem t : True := trivial\nend\nend A\n", "t", "A.t"),
        ("namespace A\ntheorem B.t : True := trivial\n", "B.t", "A.B.t"),
        ("namespace A\ntheorem _root_.t : True := trivial\nend A\n", "_root_.t", "t"),
        ("namespace A -- note\n/- namespace B -/\ntheorem t : True := trivial\n", "t", "A.t"),
        ('-- namespace B\ndef s := "namespace C"\ntheorem t : True := trivial\n', "t", "t"),
        ("namespace\n  A\nsection\nS\ntheorem t : True := trivial\n", "t", "A.t"),
    ])
    def test_the_enclosing_namespaces_qualify_the_name(self, text, name, qualified):
        assert find_signature({"q.lean": text}, name).qualified_name == qualified

    def test_the_namespace_does_not_enter_the_signature(self):
        sig = find_signature({"a.lean": "namespace A\ntheorem t : True := trivial\nend A\n"}, "t")
        assert sig.normalized == "theorem t : True"


def _stub_lake(tmp_path: Path, body: str) -> str:
    """A ``lake`` that runs ``body`` as a shell script, in the workspace directory."""
    path = tmp_path / "stub-lake"
    path.write_text("#!/bin/sh\n" + body, encoding="utf-8")
    path.chmod(0o755)
    return str(path)


class TestRealVerifierWithStubLake:
    """The subprocess side of the real verifier, with a shell script standing in for lake."""

    def workspace(self, tmp_path, verifier, sources) -> Workspace:
        ws = Workspace(root_dir=tmp_path / "ws")
        verifier.init_workspace(ws)
        for node_id, text in sources.items():
            ws.write_node_source(node_id, text)
        return ws

    def test_init_and_build_write_the_lakefile_and_root_module(self, tmp_path):
        verifier = RealVerifier(_stub_lake(tmp_path, 'echo "$@" > lake-args\n'), 30)
        ws = self.workspace(tmp_path, verifier, {"Main": "theorem Main : True := trivial\n",
                                                 "a-b": "theorem ab : True := trivial\n"})
        assert (ws.root_dir / "lakefile.toml").read_text() == (
            'name = "proofws"\ndefaultTargets = ["Proofws"]\n\n[[lean_lib]]\nname = "Proofws"\n')
        report = verifier.build(ws)
        assert report.clean and report.compiled and report.diagnostics == ""
        assert (ws.root_dir / "Proofws.lean").read_text() == (
            "import Proofws.Encoded.x612d62\nimport Proofws.Main\n")
        assert (ws.root_dir / "lake-args").read_text() == "build\n"

    def test_build_output_is_parsed_into_sorry_sites_and_errors(self, tmp_path):
        verifier = RealVerifier(_stub_lake(tmp_path, f"cat <<'OUT'\n{LAKE_OUTPUT}OUT\nexit 1\n"), 30)
        report = verifier.build(self.workspace(tmp_path, verifier, {"Main": ""}))
        assert report.sorry_sites == (("././Proofws/Lem_A.lean", 3),)
        assert report.diagnostics.splitlines() == [
            "error: Proofws/Lem_B.lean:5:10: unknown identifier 'frobnicate'",
            "error: Lean exited with code 1"]
        assert not report.compiled and not report.clean

    def test_a_sorry_warning_alone_compiles_but_is_not_clean(self, tmp_path):
        warning = "warning: Proofws/Main.lean:1:8: declaration uses 'sorry'"
        verifier = RealVerifier(_stub_lake(tmp_path, f'echo "{warning}"\n'), 30)
        report = verifier.build(self.workspace(tmp_path, verifier, {"Main": ""}))
        assert report.compiled and not report.clean
        assert report.sorry_sites == (("Proofws/Main.lean", 1),)

    def test_a_failed_build_without_an_error_line_is_still_an_error(self, tmp_path):
        verifier = RealVerifier(_stub_lake(tmp_path, "echo 'info: building'\nexit 3\n"), 30)
        report = verifier.build(self.workspace(tmp_path, verifier, {"Main": ""}))
        assert not report.compiled
        assert report.diagnostics == "error: lake build exited with status 3"

    def test_a_build_past_the_timeout_raises(self, tmp_path):
        verifier = RealVerifier(_stub_lake(tmp_path, "exec sleep 5\n"), 0.2)
        with pytest.raises(BuildTimeout):
            verifier.build(self.workspace(tmp_path, verifier, {"Main": ""}))

    def test_a_failing_driver_is_a_driver_failure(self, tmp_path):
        verifier = RealVerifier(_stub_lake(
            tmp_path, "echo 'AxiomAudit.lean:1:0: error: unknown module' >&2\nexit 1\n"), 30)
        ws = self.workspace(tmp_path, verifier, {"Main": "theorem Main : True := trivial\n"})
        with pytest.raises(DriverFail, match="unknown module"):
            verifier.audit_axioms(ws, "Main", workspace_texts(ws))

    def test_one_audit_looks_the_target_up_once(self, tmp_path, monkeypatch):
        verifier = RealVerifier(_stub_lake(
            tmp_path, "echo \"'Main' does not depend on any axioms\"\n"), 30)
        ws = self.workspace(tmp_path, verifier, {"Main": "theorem Main : True := trivial\n",
                                                 "Lem": "theorem lem : True := trivial\n"})
        lookups, headed = [], []
        real_lookup, real_heads = leanenv.find_signature, leanenv.declaration_heads
        monkeypatch.setattr(leanenv, "find_signature",
                            lambda texts, name: lookups.append(name) or real_lookup(texts, name))
        monkeypatch.setattr(leanenv, "declaration_heads",
                            lambda tokens: headed.append(tokens) or real_heads(tokens))
        report = audit_verdict(ws, "theorem Main : True", "Main", verifier)
        assert report.passed, report.detail
        assert lookups == ["Main"]
        assert len(headed) == 1  # the helper file, which lacks the name, is not tokenized

    @pytest.mark.parametrize("listed, passed", [("Main'", True), ("Main", False)])
    def test_a_primed_target_passes_with_its_own_listing_only(self, tmp_path, listed, passed):
        verifier = RealVerifier(_stub_lake(
            tmp_path, f"echo \"'{listed}' depends on axioms: [propext]\"\n"), 30)
        ws = self.workspace(tmp_path, verifier, {"Main": "theorem Main' : True := trivial\n"})
        report = audit_verdict(ws, "theorem Main' : True", "Main'", verifier)
        assert report.signature_match
        assert report.passed is passed, report.detail
        if not passed:
            assert report.detail == ("axiom audit failed: 0 axiom listings for Main' "
                                     "in driver output")

    def test_a_namesake_fails_the_audit_before_the_driver_runs(self, tmp_path):
        verifier = RealVerifier(_stub_lake(
            tmp_path, "echo \"'Main' does not depend on any axioms\"\n"), 30)
        ws = self.workspace(tmp_path, verifier, {
            "Aux": "namespace Evil\ntheorem Main : True := trivial\nend Evil\n",
            "Main": "theorem Main : 1 = 1 ∨ True := Or.inr trivial\n"})
        report = audit_verdict(ws, "theorem Main : True", "Main", verifier)
        assert not report.passed and not report.signature_match
        assert report.detail == ("target not found: multiple declarations named Main in "
                                 "Proofws/Aux.lean, Proofws/Main.lean")
        assert not (ws.root_dir / "AxiomAudit.lean").exists()

    def test_a_namespaced_target_is_audited_under_its_full_name(self, tmp_path):
        # Like Lean, the stub lists axioms only for a name that resolves at the top level.
        full = "BurnsidePrimeDegreeTheorem.MainTheorem"
        verifier = RealVerifier(_stub_lake(tmp_path, (
            f"if grep -qx '#print axioms {full}' AxiomAudit.lean; then\n"
            f"  echo \"'{full}' depends on axioms: [propext, Classical.choice, Quot.sound]\"\n"
            "else\n  echo 'AxiomAudit.lean:3:15: error: unknown constant' >&2; exit 1\nfi\n")), 30)
        ws = self.workspace(tmp_path, verifier, {"Main": BURNSIDE_SOLVED,
                                                 "Lem_A": "theorem a : True := trivial\n"})
        anchor = find_anchor((BURNSIDE_DIR / "input.lean").read_text(encoding="utf-8"))
        report = audit_verdict(ws, anchor.signature_text, anchor.decl_name, verifier)
        assert (ws.root_dir / "AxiomAudit.lean").read_text() == (
            f"import Proofws.Lem_A\nimport Proofws.Main\n\n#print axioms {full}\n")
        assert report.passed, report.detail
        assert report.axioms_used == {"propext", "Classical.choice", "Quot.sound"}
