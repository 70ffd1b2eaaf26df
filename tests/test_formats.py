"""The four v1 line formats (plan, diff, fixture, sim rules) read through one LineReader."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import anchor_decl, mk_node, random_dag_plan, random_diff
from proofloop.agents import (
    CheckKind,
    CheckVerdict,
    Fixture,
    FixtureEntry,
    FixtureKey,
    FixtureParse,
    LeanOutcome,
    TaskKind,
    TokenUsage,
    fixture_to_text,
    parse_fixture,
)
from proofloop.leanenv import SimRule, SimRuleError, parse_sim_rules
from proofloop.plan import (
    PlanDiff,
    PlanError,
    PlanNode,
    apply_diff,
    create_plan,
    diff_from_text,
    diff_to_text,
    plan_from_text,
    plan_to_text,
)

# Any text a JSON string may carry: quotes, backslashes, newlines, "#", U+2028 and U+0085.
free_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=10)
NOISE = ["", "   ", "#", "# note", "  # indented note", "\t"]


def with_noise(text: str, rng: random.Random) -> str:
    """``text`` with blank and ``#`` lines between its lines, never inside a heredoc."""
    out: list[str] = []
    marker = None
    for line in text.split("\n")[:-1]:
        if marker is None:
            out.extend(rng.choice(NOISE) for _ in range(rng.randint(0, 2)))
        out.append(line)
        if marker is None and line.startswith("payload ") and "<<" in line:
            marker = line.split("<<", 1)[1]
        elif line == marker:
            marker = None
    out.extend(rng.choice(NOISE) for _ in range(rng.randint(0, 2)))
    return "\n".join(out) + "\n"


@st.composite
def plans_and_diffs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    plan = random_dag_plan(rng, max_nodes=8)
    plan = create_plan([PlanNode(node.node_id, draw(free_text), draw(free_text), node.deps,
                                 node.status, node.anchor)
                        for node in (plan.nodes[node_id] for node_id in plan.order)])
    plan, _ = apply_diff(plan, random_diff(rng, plan))  # a revision and retired ids
    return plan, random_diff(rng, plan)


source_lines = st.lists(st.one_of(
    st.sampled_from(["#check Nat", "# x", "", "  ", "  # y", "theorem t : True := trivial",
                     "end", "payload source <<LEAN-EOF", "  sorry",
                     "LEAN-EOF", "LEAN-EOF-1", "LEAN-EOF-2", "DIFF-EOF"]),
    st.text(alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
            max_size=8),
), max_size=8)


# Node ids for fixture keys, all-digit ones among them.
fixture_node_ids = st.sampled_from(["n", "Lem_A", "7", "42"])


@st.composite
def fixtures(draw):
    fixture = Fixture()
    plan, diff = draw(plans_and_diffs())
    usage = st.builds(TokenUsage, *[st.integers(0, 10**6)] * 4)
    fixture.add(FixtureEntry(FixtureKey(TaskKind.PLAN_REVISE, None, plan.anchor_id), 1, diff,
                             draw(usage)))
    lean_id, check_id = draw(fixture_node_ids), draw(fixture_node_ids)
    for i, lines in enumerate(draw(st.lists(source_lines, max_size=3)), 1):
        source = "".join(line + "\n" for line in lines)
        fixture.add(FixtureEntry(FixtureKey(TaskKind.LEAN_WORK, None, lean_id), i,
                                 LeanOutcome(source)))
    for i, passed in enumerate(draw(st.lists(st.booleans(), max_size=3)), 1):
        verdict = CheckVerdict(passed, draw(free_text))
        fixture.add(FixtureEntry(FixtureKey(TaskKind.CHECK, CheckKind.MATH, check_id), i, verdict))
    return fixture


names = st.text(alphabet="abcXYZ_.-0123", min_size=1, max_size=6)
rule_tables = st.dictionaries(names, st.builds(
    SimRule, st.booleans(), st.lists(st.integers(0, 999), max_size=3).map(tuple),
    st.text(alphabet="abc :'#-", max_size=12).map(str.strip),
    st.frozensets(names, max_size=3)), max_size=4)


def rules_to_text(rules: dict[str, SimRule]) -> str:
    lines = ["simrules v1"]
    for key, rule in rules.items():
        lines += [f"rule {key}", f"clean {str(rule.clean).lower()}",
                  " ".join(["sorries", *map(str, rule.sorry_lines)])]
        if rule.diagnostics:
            lines.append(f"diagnostics {rule.diagnostics}")
        lines += [" ".join(["axioms", *sorted(rule.axioms)]), "end"]
    return "\n".join(lines) + "\n"


class TestSharedLineRules:
    @given(plans_and_diffs(), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_plans_and_diffs_ignore_blank_and_comment_lines(self, plan_and_diff, seed):
        plan, diff = plan_and_diff
        assert plan_from_text(with_noise(plan_to_text(plan), random.Random(seed))) == plan
        assert diff_from_text(with_noise(diff_to_text(diff), random.Random(seed))) == diff

    @given(fixtures(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_fixtures_ignore_blank_and_comment_lines_outside_heredocs(self, fixture, seed):
        text = fixture_to_text(fixture)
        assert parse_fixture(text) == fixture
        assert parse_fixture(with_noise(text, random.Random(seed))) == fixture
        assert fixture_to_text(parse_fixture(text)) == text

    @pytest.mark.parametrize("node_id", ["7", "42"])
    def test_an_all_digit_node_id_reads_back_as_the_node(self, node_id):
        """Two fields after the kind (and the check kind) are the node and the
        occurrence, so an all-digit node id is not read as an occurrence."""
        fixture = Fixture()
        diff = PlanDiff(adds=(mk_node("a"),))
        for kind, check_kind, payload in (
                (TaskKind.PLAN_REVISE, None, diff),
                (TaskKind.LEAN_WORK, None, LeanOutcome("theorem a : True := trivial\n")),
                (TaskKind.CHECK, CheckKind.FAITHFULNESS, CheckVerdict(True, ""))):
            for occurrence in (1, 2):
                fixture.add(FixtureEntry(FixtureKey(kind, check_kind, node_id), occurrence,
                                         payload))
        text = fixture_to_text(fixture)
        assert f"entry lean {node_id} 2\n" in text
        assert parse_fixture(text) == fixture
        assert fixture_to_text(parse_fixture(text)) == text

    @given(rule_tables, st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_rule_tables_ignore_blank_and_comment_lines(self, rules, seed):
        assert parse_sim_rules(with_noise(rules_to_text(rules), random.Random(seed))) == rules

    @given(source_lines)
    @settings(max_examples=200, deadline=None)
    def test_a_lean_source_payload_round_trips_verbatim(self, lines):
        source = "".join(line + "\n" for line in lines)
        fixture = Fixture()
        key = FixtureKey(TaskKind.LEAN_WORK, None, "n")
        fixture.add(FixtureEntry(key, 1, LeanOutcome(source)))
        text = fixture_to_text(fixture)
        assert parse_fixture(text).entries[(key, 1)].payload.source == source
        assert fixture_to_text(parse_fixture(text)) == text

    def test_a_source_line_equal_to_the_marker_gets_the_next_marker(self):
        fixture = Fixture()
        key = FixtureKey(TaskKind.LEAN_WORK, None, "n")
        fixture.add(FixtureEntry(key, 1, LeanOutcome("a\nLEAN-EOF\nb\nLEAN-EOF-1\n")))
        text = fixture_to_text(fixture)
        assert "payload source <<LEAN-EOF-2\n" in text
        assert parse_fixture(text) == fixture

    def test_a_json_string_holding_a_line_separator_round_trips(self):
        plan = create_plan([PlanNode("a", "one\u2028two\x85three", "s\x1c"),
                            PlanNode("t", "t", "", ("a",), anchor=anchor_decl("t"))])
        assert plan_from_text(plan_to_text(plan)) == plan


PLAN = 'proofplan v1\nrevision 0\nnode t\ninformal "t"\nsketch ""\ndeps\nstatus open\n'
ANCHOR = 'anchor "t" "theorem t : True" ":= sorry"\nend\n'


@pytest.mark.parametrize("parse, text, error, where", [
    (plan_from_text, "\n# a plan\nproofplan v2\n", PlanError, "plan line 3: not a proofplan v1"),
    (plan_from_text, "proofplan v1\nrevision one\n", PlanError, "plan line 2: expected 1"),
    (plan_from_text, PLAN.replace('sketch ""', "sketch oops"), PlanError, "plan line 5: bad quoted"),
    (plan_from_text, PLAN.replace("open", "done") + ANCHOR, PlanError, "plan line 7: unknown status"),
    (plan_from_text, PLAN.replace("deps", "deps t") + ANCHOR, PlanError, "plan line 9: node t"),
    (plan_from_text, PLAN + "\n# more\n", PlanError, "plan line 10: unexpected end of plan"),
    (diff_from_text, "plandiff v1\ncause whim\n", PlanError, "diff line 2: unknown cause"),
    (diff_from_text, "plandiff v1\ncause math-fail\n\nremove a\nfrobnicate b\n", PlanError,
     "diff line 5: unexpected line"),
    (diff_from_text, 'plandiff v1\ncause math-fail\nrewrite a\ninformal "x"\nsketch ""\ndeps\nstop\n',
     PlanError, "diff line 7: rewrite block missing 'end'"),
    (parse_fixture, "fixture v1\n\nentry lean n 1\npayload source <<EOF\n# kept\nEOF\nusage 1 2 3 x\n"
     "end\n", FixtureParse, "fixture line 7: expected only non-negative integers"),
    (parse_fixture, "fixture v1\nentry lean n 1\nusage -1 0 0 0\nend\n", FixtureParse,
     "fixture line 3: expected only non-negative integers"),
    (parse_fixture, "fixture v1\nentry lean n x\nend\n", FixtureParse, "fixture line 2: expected 1"),
    (parse_fixture, "fixture v1\n# c\nentry lean n 1\npayload source <<EOF\nx\n", FixtureParse,
     "fixture line 4: heredoc missing terminator 'EOF'"),
    (parse_fixture, "fixture v1\nentry plan-initial\n\npayload diff <<D\nplandiff v1\nbad\nD\nend\n",
     FixtureParse, "fixture line 7: bad diff payload: diff line 2: expected 'cause'"),
    (parse_fixture, "fixture v1\nentry lean n 1\nverdict pass\nend\n", FixtureParse,
     "fixture line 4: lean/n#1: payload CheckVerdict does not match lean task"),
    (parse_fixture, "fixture v1\nentry check n 1\nverdict pass\nend\n", FixtureParse,
     "fixture line 2: unknown check kind 'n'"),
    (parse_sim_rules, "simrules v1\n# c\nrule k\nclean true\nsorries 3 x\nend\n", SimRuleError,
     "sim rules line 5: expected only non-negative integers"),
    (parse_sim_rules, "simrules v1\nrule\nend\n", SimRuleError, "sim rules line 2: rule needs a key"),
    (parse_sim_rules, "simrules v1\nrule k\nclean true\n", SimRuleError,
     "sim rules line 4: unexpected end of sim rules"),
])
def test_each_format_names_the_line_of_its_error(parse, text, error, where):
    with pytest.raises(error) as exc:
        parse(text)
    assert str(exc.value).startswith(where)


def test_a_fixture_entry_must_carry_its_kind_of_payload():
    with pytest.raises(FixtureParse, match="payload LeanOutcome does not match check task"):
        Fixture().add(FixtureEntry(FixtureKey(TaskKind.CHECK, CheckKind.MATH, "n"), 1,
                                   LeanOutcome("x\n")))
