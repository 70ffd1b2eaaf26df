"""The shared Lean tokenizer and the readers built on it, against the oracle."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import LEAN_LITERALS, LEAN_WORDS, oracle_scan, oracle_unterminated
from proofloop.leanenv import (
    DEFAULT_PERMITTED_AXIOMS,
    InputError,
    SimVerifier,
    Workspace,
    audit_verdict,
    find_anchor,
    scan_forbidden_text,
    sim_directives,
)
from proofloop.lexer import (
    BLOCK,
    CHAR,
    COMMENT,
    IDENT,
    OTHER,
    STRING,
    forbidden_word,
    tokenize,
    unterminated,
)
from proofloop.plan import AnchorDecl, AnchorError


def kinds(text):
    return [(kind, token) for kind, token, _ in tokenize(text) if kind != OTHER]


class TestTokenClasses:
    def test_line_comment_stops_before_the_newline(self):
        assert kinds("a -- b c\nd") == [(IDENT, "a"), (COMMENT, "-- b c"), (IDENT, "d")]

    def test_block_comments_nest(self):
        assert kinds("/- a /- b -/ c -/ d") == [(BLOCK, "/- a /- b -/ c -/"), (IDENT, "d")]

    def test_doc_comment_is_a_block_comment(self):
        assert kinds("/-- doc -/ x") == [(BLOCK, "/-- doc -/"), (IDENT, "x")]

    def test_string_escapes_do_not_end_the_literal(self):
        assert kinds('"a\\" b\\\\" c') == [(STRING, '"a\\" b\\\\"'), (IDENT, "c")]

    @pytest.mark.parametrize("literal", ["'a'", "'\"'", "'\\''", "'\\\\'", "'\\n'",
                                         "'\\x41'", "'\\u03b1'", "'\\u{3b1}'", "'α'"])
    def test_char_literals(self, literal):
        assert kinds(f"{literal} x") == [(CHAR, literal), (IDENT, "x")]

    @pytest.mark.parametrize("literal", ['r"a"', 'r"a\\"', 'r#"a"b"#', 'r##"a"#b"##', 'r#""#'])
    def test_raw_strings(self, literal):
        assert kinds(f"{literal} x") == [(STRING, literal), (IDENT, "x")]

    def test_raw_string_closes_at_the_first_matching_hashes(self):
        assert kinds('r#"a"##') == [(STRING, 'r#"a"#')]

    def test_r_inside_an_identifier_opens_no_raw_string(self):
        assert kinds('xr"a" y') == [(IDENT, "xr"), (STRING, '"a"'), (IDENT, "y")]

    def test_guillemet_names_and_dotted_identifiers(self):
        assert kinds("Foo.«a -- b».c x.1") == [(IDENT, "Foo.«a -- b».c"), (IDENT, "x")]

    def test_unterminated_comment_and_string_run_to_the_end(self):
        assert kinds("x /- a\n sorry") == [(IDENT, "x"), (BLOCK, "/- a\n sorry")]
        assert kinds('x "a\n sorry') == [(IDENT, "x"), (STRING, '"a\n sorry')]
        assert kinds('x "a\\') == [(IDENT, "x"), (STRING, '"a\\')]

    @pytest.mark.parametrize("text, kind", [
        ("x /- a\n sorry", BLOCK), ("/- a /- b -/ c", BLOCK), ("/- a -/ /- b", BLOCK),
        ('x "a\n sorry', STRING), ('"a\\', STRING), ('"a\\"', STRING), ('r#"a"', STRING),
        ('r"', STRING), ("/- a -/", None), ("/- a /- b -/ c -/", None), ('"a\\""', None),
        ('r#"a"#', None), ('"a" x', None), ("'\"' x", None), ("-- /- \"", None), ("x", None),
    ])
    def test_unterminated_names_the_literal_left_open(self, text, kind):
        assert unterminated(text) == kind

    def test_lone_quote_and_guillemet_are_punctuation(self):
        assert kinds("'ab «c d") == [(IDENT, "ab"), (IDENT, "c"), (IDENT, "d")]


class TestIdentifierRule:
    @pytest.mark.parametrize("text,ident", [
        ("αsorry", "αsorry"), ("sorry₁", "sorry₁"), ("sorry'", "sorry'"), ("h'x", "h'x"),
        ("ℕsorry", "ℕsorry"), ("x_1", "x_1"), ("𝔽sorry", "𝔽sorry"),
    ])
    def test_lean_identifier_characters_join(self, text, ident):
        assert kinds(text) == [(IDENT, ident)]

    @pytest.mark.parametrize("text", ["sorry?", "sorry!", "λsorry", "Πsorry", "Σsorry",
                                      "2sorry", "ésorry", "₁sorry", "(sorry)"])
    def test_other_characters_split(self, text):
        assert (IDENT, "sorry") in kinds(text)

    @pytest.mark.parametrize("ident,word", [
        ("sorry", "sorry"), ("admit", "admit"), ("axiom", "axiom"), ("x.sorry", "sorry"),
        ("sorry.x", "sorry"), ("admit.sorry", "admit"), ("«sorry»", "sorry"),
        ("debug.skipKernelTC", "debug.skipKernelTC"), ("«debug».skipKernelTC", "debug.skipKernelTC"),
        ("sorryFree", None), ("αsorry", None), ("skipKernelTC", None), ("debug.skip", None),
        ("Foo.bar", None),
    ])
    def test_forbidden_word(self, ident, word):
        assert forbidden_word(ident) == word


class TestKernelBypass:
    def test_skip_kernel_option_in_code_is_flagged(self):
        text = "set_option debug.skipKernelTC true in\ntheorem t : True := trivial\n"
        assert scan_forbidden_text(text) == [("debug.skipKernelTC", "<memory>", 1)]

    def test_skip_kernel_option_in_comment_is_not_flagged(self):
        assert scan_forbidden_text("-- set_option debug.skipKernelTC true\n/- debug.skipKernelTC -/") == []

    def test_skip_kernel_option_in_string_is_not_flagged(self):
        assert scan_forbidden_text('def s := "debug.skipKernelTC"\n') == []


class TestInterpolatedStrings:
    def test_a_sorry_inside_an_interpolation_is_code(self):
        text = 'theorem t : True := by\n  have := s!"{(sorry : Nat)}"\n  trivial\n'
        assert scan_forbidden_text(text) == [("sorry", "<memory>", 2)]

    def test_parts_report_their_own_lines(self):
        text = 'def s := m!"a\n{b\n  sorry} {admit}\nc"\n'
        assert scan_forbidden_text(text) == [("sorry", "<memory>", 3), ("admit", "<memory>", 3)]

    @pytest.mark.parametrize("text", ['"a sorry {x}"', '"\\{sorry}"', 'r"{sorry}"',
                                      '"{x} sorry"', '"{ /- {} -/ x } sorry"'])
    def test_literal_text_outside_the_parts_is_not_code(self, text):
        assert scan_forbidden_text(text) == []

    @pytest.mark.parametrize("text", ['"{ \'}\' ++ sorry }"', '"{ /- } -/ sorry }"',
                                      '"{f {a} sorry}"', '"{sorry"'])
    def test_a_part_ends_at_the_brace_that_closes_it_in_code(self, text):
        assert scan_forbidden_text(text) == [("sorry", "<memory>", 1)]

    def test_anchor_and_input_checks_see_an_interpolated_sorry(self):
        body = ':= by\n  have := s!"{(sorry : Nat)}"\n  trivial\n'
        assert AnchorDecl("t", "theorem t : True", body).original_body == body
        assert find_anchor("theorem t : True " + body).decl_name == "t"


# ---------------------------------------------------------------------------
# Generated files mixing every lexical class.

_HOSTILE = "sorydmitaxu_'\"\\-/#r«».!?αλ₁{}2 \n"
_FRAGMENTS = LEAN_WORDS + LEAN_LITERALS + [
    "-- ", "--", "/-", "-/", "/--", "\n", " ", ".", ":= ", "(", ")", '"', "'", "«", "»",
    "debug", "skipKernelTC", "sim:", "theorem t : True := ",
]

lean_texts = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(alphabet=_HOSTILE, max_size=4)),
    max_size=30,
).map("".join)


class TestTokenizerProperties:
    @given(lean_texts)
    @settings(max_examples=400, deadline=None)
    def test_tokens_cover_the_text_and_carry_start_lines(self, text):
        tokens = list(tokenize(text))
        assert "".join(token for _, token, _ in tokens) == text
        pos = 0
        for kind, token, line in tokens:
            assert token
            assert line == text.count("\n", 0, pos) + 1
            if kind == COMMENT:
                assert "\n" not in token
            pos += len(token)

    @given(lean_texts)
    @settings(max_examples=400, deadline=None)
    def test_scanner_matches_the_oracle(self, text):
        assert scan_forbidden_text(text, "h.lean") == oracle_scan(text, "h.lean")

    @given(lean_texts)
    @settings(max_examples=400, deadline=None)
    def test_unterminated_matches_the_oracle(self, text):
        assert (unterminated(text) is not None) == oracle_unterminated(text)

    @given(lean_texts)
    @settings(max_examples=120, deadline=None)
    def test_sim_audit_passes_iff_the_oracle_finds_nothing(self, text):
        text = text.replace("sim:", "sim")
        with tempfile.TemporaryDirectory() as root:
            ws = Workspace(root_dir=Path(root))
            # The helper's fragments declare t, never Main, so the target stays the one Main.
            ws.write_node_source("Main", "theorem Main : True := trivial\n")
            ws.write_node_source("h", text)
            report = audit_verdict(ws, "theorem Main : True", "Main", SimVerifier(),
                                   DEFAULT_PERMITTED_AXIOMS)
        assert report.passed == (oracle_scan(text) == [] and not oracle_unterminated(text))

    @given(lean_texts)
    @settings(max_examples=400, deadline=None)
    def test_anchor_and_body_checks_agree_with_the_scanner(self, text):
        text = text.replace("theorem", "")  # keep `t` the only declaration
        flagged = any(word == "sorry" for word, _, _ in scan_forbidden_text(text))
        try:
            AnchorDecl("t", "theorem t : True", text)
            accepted = True
        except AnchorError:
            accepted = False
        assert accepted == flagged
        try:
            find_anchor("theorem t : True := " + text)
            found = True
        except InputError as exc:
            found = "no sorry" not in str(exc)
        assert found == flagged


# The directive pattern of the regex reader the directives moved off, kept as a reference.
_OLD_DIRECTIVE = re.compile(r"^\s*--\s*sim:\s*(key|error|axioms)\s*(.*?)\s*$", re.MULTILINE)


class TestSimDirectives:
    @given(st.text(alphabet=" \t\r\x0b", max_size=3), st.text(alphabet=" \t", max_size=2),
           st.sampled_from(["sim:", "sim", "Sim:", "sim :"]),
           st.sampled_from(["key", "error", "axioms", "keys", "axiom", "errorx", ""]),
           st.text(alphabet=" \tab-:.\r", max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_a_directive_line_reads_as_the_old_pattern_read_it(self, indent, gap, tag, word, arg):
        line = f"{indent}--{gap}{tag} {word}{arg}"
        expected: dict[str, list[str]] = {}
        for match in _OLD_DIRECTIVE.finditer(line):
            expected.setdefault(match.group(1), []).append(match.group(2))
        assert sim_directives(line + "\ntheorem t : True := trivial\n") == expected

    def test_a_directive_never_reads_past_its_line(self):
        assert sim_directives("-- sim: key\nfoo := 1\n") == {"key": [""]}

    def test_directives_are_collected_in_order(self):
        text = "-- sim: axioms a b\ntheorem t : True := trivial\n  -- sim: axioms c\n"
        assert sim_directives(text) == {"axioms": ["a b", "c"]}

    @pytest.mark.parametrize("text", [
        "/-\n-- sim: error boom\n-/\n",
        'def s := "\n-- sim: error boom\n"\n',
        "theorem t : True := trivial -- sim: error boom\n",
        "/- c -/ -- sim: error boom\n",
        "/- a\nb -/ -- sim: error boom\n",
    ])
    def test_only_a_line_comment_that_starts_its_line_is_a_directive(self, text):
        assert sim_directives(text) == {}
