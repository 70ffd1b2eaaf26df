import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    anchor_decl,
    chain_plan,
    mk_node,
    oracle_closed_cycle,
    oracle_invalidated,
    oracle_order,
    random_dag_plan,
    random_diff,
    random_split_diff,
)
from proofloop.ledger import Frame, depth_layout
from proofloop.plan import (
    AnchorDecl,
    AnchorError,
    CycleError,
    DanglingDepError,
    DiffCause,
    NodeRewrite,
    PlanDiff,
    PlanError,
    PlanNode,
    RejectedDiff,
    Status,
    apply_diff,
    create_plan,
    diff_from_text,
    diff_to_text,
    is_complete,
    next_open_statement,
    plan_from_text,
    plan_to_text,
    set_status,
)


def burnside_initial():
    return create_plan([
        mk_node("t1", ("h2", "h3", "h4", "h5", "h6"), anchor=anchor_decl("t1")),
        mk_node("h2", ("h3", "h4", "h5", "h6")),
        mk_node("h3"),
        mk_node("h4"),
        mk_node("h5"),
        mk_node("h6"),
    ])


class TestCreatePlan:
    def test_single_anchored_node(self):
        plan = create_plan([mk_node("only", anchor=anchor_decl("only"))])
        assert plan.order == ("only",)
        assert plan.revision == 0

    def test_six_node_initial_plan_orders_prerequisites_first(self):
        plan = burnside_initial()
        assert plan.order.index("t1") == len(plan.order) - 1
        for helper in ("h2", "h3", "h4", "h5", "h6"):
            assert plan.order.index(helper) < plan.order.index("t1")

    def test_ties_break_by_insertion_index(self):
        plan = create_plan([
            mk_node("z", anchor=anchor_decl("z")),
            mk_node("b"),
            mk_node("a"),
        ])
        assert plan.order == ("z", "b", "a") or plan.order[0] != "a"
        # z has no deps and was inserted first, so it sorts first.
        assert plan.order == ("z", "b", "a")

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError) as exc:
            create_plan([
                mk_node("a", ("b",), anchor=anchor_decl("a")),
                mk_node("b", ("a",)),
            ])
        assert set(exc.value.cycle) >= {"a", "b"}

    def test_reported_cycle_is_a_closed_dependency_path(self):
        nodes = [
            mk_node("d", ("a",)),  # downstream of the cycle, unsorted but not on it
            mk_node("a", ("c",), anchor=anchor_decl("a")),
            mk_node("b", ("a",)),
            mk_node("c", ("b",)),
            mk_node("e"),
        ]
        with pytest.raises(CycleError) as exc:
            create_plan(nodes)
        cycle = exc.value.cycle
        deps = {node.node_id: node.deps for node in nodes}
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}
        assert all(dep in deps[node] for node, dep in zip(cycle, cycle[1:]))

    def test_no_anchor_rejected(self):
        with pytest.raises(AnchorError):
            create_plan([mk_node("a")])

    def test_two_anchors_rejected(self):
        with pytest.raises(AnchorError):
            create_plan([
                mk_node("a", anchor=anchor_decl("a")),
                mk_node("b", anchor=anchor_decl("b")),
            ])

    def test_dangling_dep_rejected(self):
        with pytest.raises(DanglingDepError):
            create_plan([mk_node("a", ("ghost",), anchor=anchor_decl("a"))])

    def test_duplicate_id_rejected(self):
        with pytest.raises(PlanError):
            create_plan([mk_node("a", anchor=anchor_decl("a")), mk_node("a")])

    def test_self_dep_rejected(self):
        with pytest.raises(PlanError):
            mk_node("a", ("a",))

    def test_anchor_body_must_contain_sorry(self):
        with pytest.raises(AnchorError):
            AnchorDecl("t", "theorem t : True", ":= trivial")
        # Identifier containing the word is not a sorry token.
        with pytest.raises(AnchorError):
            AnchorDecl("t", "theorem t : True", ":= sorryFree")
        with pytest.raises(AnchorError):
            AnchorDecl("t", "theorem t : True", ":= trivial -- sorry")

    def test_anchor_body_sorry_may_carry_a_suffix(self):
        # `!` and `?` never hide a forbidden word, as in the scanner.
        assert AnchorDecl("t", "theorem t : True", ":= sorry?").original_body == ":= sorry?"


def full_rewrite(plan, node_id, deps=None):
    node = plan.nodes[node_id]
    return NodeRewrite(node_id, node.informal + " (new)", node.sketch,
                       node.deps if deps is None else deps)


class TestApplyDiff:
    def test_rewrite_head_of_chain_invalidates_whole_chain(self):
        plan = chain_plan(["A", "B", "C"], {n: Status.CLOSED for n in "ABC"})
        diff = PlanDiff(rewrites=(full_rewrite(plan, "A"),), cause=DiffCause.MATH_FAIL)
        new_plan, invalidated = apply_diff(plan, diff)
        assert invalidated == {"A", "B", "C"}
        assert all(new_plan.nodes[n].status is Status.OPEN for n in "ABC")

    def test_mid_chain_rewrite_spares_unrelated_closed_node(self):
        plan = create_plan([
            mk_node("A", status=Status.CLOSED),
            mk_node("B", ("A",), status=Status.CLOSED),
            mk_node("C", ("B",), status=Status.CLOSED, anchor=anchor_decl("C")),
            mk_node("D", status=Status.CLOSED),
        ])
        diff = PlanDiff(rewrites=(full_rewrite(plan, "B"),), cause=DiffCause.MATH_FAIL)
        new_plan, invalidated = apply_diff(plan, diff)
        assert invalidated == oracle_invalidated(plan, diff) == {"B", "C"}
        assert new_plan.nodes["D"].status is Status.CLOSED
        assert new_plan.nodes["A"].status is Status.CLOSED

    def test_rewrite_plus_helper_addition_keeps_siblings_closed(self):
        # The faithfulness-driven revision shape: rewrite one helper, add a new
        # dependency for it; only the helper and the target reopen.
        plan = burnside_initial()
        for helper in ("h3", "h4", "h5", "h6"):
            plan = set_status(plan, helper, Status.CLOSED)
        diff = PlanDiff(
            adds=(mk_node("h7"),),
            rewrites=(NodeRewrite("h2", "h2 strengthened", "", ("h3", "h4", "h7")),),
            cause=DiffCause.FAITHFULNESS_FAIL,
        )
        new_plan, invalidated = apply_diff(plan, diff)
        assert invalidated == {"h2", "t1"}
        assert new_plan.nodes["h2"].status is Status.OPEN
        assert new_plan.nodes["h7"].status is Status.OPEN
        assert new_plan.nodes["t1"].status is Status.OPEN
        for helper in ("h3", "h4", "h5", "h6"):
            assert new_plan.nodes[helper].status is Status.CLOSED
        assert new_plan.revision == plan.revision + 1

    def test_sketch_only_rewrite_invalidates_node_but_not_dependents(self):
        plan = chain_plan(["A", "B"], {"A": Status.CLOSED, "B": Status.CLOSED})
        node = plan.nodes["A"]
        diff = PlanDiff(rewrites=(NodeRewrite("A", node.informal, "fresh sketch", node.deps),),
                        cause=DiffCause.MATH_FAIL)
        new_plan, invalidated = apply_diff(plan, diff)
        assert invalidated == {"A"}
        assert new_plan.nodes["B"].status is Status.CLOSED

    def test_noop_rewrite_invalidates_nothing(self):
        plan = chain_plan(["A", "B"], {"A": Status.CLOSED, "B": Status.CLOSED})
        node = plan.nodes["A"]
        diff = PlanDiff(rewrites=(NodeRewrite("A", node.informal, node.sketch, node.deps),),
                        cause=DiffCause.MATH_FAIL)
        _, invalidated = apply_diff(plan, diff)
        assert invalidated == set()

    def test_remove_invalidates_former_dependents(self):
        plan = create_plan([
            mk_node("A", status=Status.CLOSED),
            mk_node("B", ("A",), status=Status.CLOSED),
            mk_node("C", ("B",), status=Status.CLOSED, anchor=anchor_decl("C")),
        ])
        diff = PlanDiff(
            removes=("A",),
            rewrites=(NodeRewrite("B", plan.nodes["B"].informal,
                                  plan.nodes["B"].sketch, ()),),
            cause=DiffCause.DECOMPOSITION_SPLIT,
        )
        new_plan, invalidated = apply_diff(plan, diff)
        assert "A" not in new_plan.nodes
        assert invalidated == {"B", "C"}
        assert "A" in new_plan.retired

    def test_removing_anchor_rejected(self):
        plan = chain_plan(["A", "B"])
        with pytest.raises(RejectedDiff):
            apply_diff(plan, PlanDiff(removes=("B",), cause=DiffCause.MATH_FAIL))

    def test_dangling_after_remove_rejected(self):
        plan = chain_plan(["A", "B"])
        with pytest.raises(RejectedDiff):
            apply_diff(plan, PlanDiff(removes=("A",), cause=DiffCause.MATH_FAIL))

    def test_cycle_introduced_by_rewrite_rejected(self):
        plan = chain_plan(["A", "B"])
        diff = PlanDiff(rewrites=(full_rewrite(plan, "A", deps=("B",)),),
                        cause=DiffCause.MATH_FAIL)
        with pytest.raises(RejectedDiff):
            apply_diff(plan, diff)

    def test_adding_existing_or_retired_id_rejected(self):
        plan = create_plan([
            mk_node("A", status=Status.CLOSED),
            mk_node("B", anchor=anchor_decl("B")),
        ])
        with pytest.raises(RejectedDiff):
            apply_diff(plan, PlanDiff(adds=(mk_node("A"),), cause=DiffCause.MATH_FAIL))
        new_plan, _ = apply_diff(plan, PlanDiff(removes=("A",), cause=DiffCause.MATH_FAIL))
        with pytest.raises(RejectedDiff):
            apply_diff(new_plan, PlanDiff(adds=(mk_node("A"),), cause=DiffCause.MATH_FAIL))

    def test_adding_second_anchor_rejected(self):
        plan = chain_plan(["A", "B"])
        with pytest.raises(RejectedDiff):
            apply_diff(plan, PlanDiff(adds=(mk_node("X", anchor=anchor_decl("X")),),
                                      cause=DiffCause.MATH_FAIL))

    def test_rewriting_unknown_node_rejected(self):
        plan = chain_plan(["A", "B"])
        with pytest.raises(RejectedDiff):
            apply_diff(plan, PlanDiff(rewrites=(NodeRewrite("ghost", "x", "", ()),),
                                      cause=DiffCause.MATH_FAIL))

    def test_anchor_signature_conserved(self):
        plan = burnside_initial()
        before = plan.anchor.signature_text
        diff = PlanDiff(adds=(mk_node("h7"),),
                        rewrites=(NodeRewrite("t1", "t1 regrouped", "",
                                              ("h2", "h3", "h4", "h5", "h6", "h7")),),
                        cause=DiffCause.DECOMPOSITION_SPLIT)
        new_plan, _ = apply_diff(plan, diff)
        assert new_plan.anchor_id == plan.anchor_id
        assert new_plan.anchor.signature_text == before

    def test_unchanged_nodes_keep_relative_order(self):
        plan = burnside_initial()
        diff = PlanDiff(adds=(mk_node("h7"),),
                        rewrites=(NodeRewrite("h2", "h2 v2", "", ("h3", "h7")),),
                        cause=DiffCause.FAITHFULNESS_FAIL)
        new_plan, _ = apply_diff(plan, diff)
        untouched = [n for n in plan.order if n not in ("h2",)]
        projected = [n for n in new_plan.order if n in untouched]
        assert projected == untouched

    def test_revision_strictly_increases(self):
        plan = chain_plan(["A", "B"])
        revisions = [plan.revision]
        for _ in range(3):
            plan, _ = apply_diff(plan, PlanDiff(rewrites=(full_rewrite(plan, "A"),),
                                                cause=DiffCause.MATH_FAIL))
            revisions.append(plan.revision)
        assert revisions == [0, 1, 2, 3]


class TestSelection:
    def test_initial_plan_selects_earliest_ready_prerequisite(self):
        plan = burnside_initial()
        selected = next_open_statement(plan)
        assert selected in {"h2", "h3", "h4", "h5", "h6"}
        assert selected == plan.order[0]

    def test_complete_plan_selects_nothing(self):
        plan = chain_plan(["A", "B"], {"A": Status.CLOSED, "B": Status.CLOSED})
        assert next_open_statement(plan) is None
        assert is_complete(plan)

    def test_dependency_selected_before_dependent(self):
        plan = chain_plan(["B", "A"])  # A depends on B
        assert next_open_statement(plan) == "B"

    def test_failing_node_with_closed_deps_is_selected(self):
        plan = chain_plan(["A", "B"], {"A": Status.CLOSED, "B": Status.FAILING})
        assert next_open_statement(plan) == "B"

    def test_open_node_with_open_dep_is_skipped(self):
        plan = create_plan([
            mk_node("A"),
            mk_node("B", ("A",)),
            mk_node("C", anchor=anchor_decl("C")),
        ])
        plan = set_status(plan, "A", Status.FAILING)
        # B's dep is failing, so B is not ready; A itself is.
        assert next_open_statement(plan) == "A"

    def test_incomplete_cases(self):
        assert not is_complete(chain_plan(["A", "B"]))
        assert not is_complete(chain_plan(["A", "B"], {"A": Status.CLOSED,
                                                       "B": Status.FAILING}))


class TestSerialization:
    def test_round_trip_is_lossless_and_stable(self):
        plan = burnside_initial()
        plan = set_status(plan, "h3", Status.CLOSED)
        plan, _ = apply_diff(plan, PlanDiff(
            adds=(mk_node("h7", informal="uni ∀ α ⊥ text\nwith newline", sketch="s \"q\""),),
            removes=("h5",),
            rewrites=(NodeRewrite("h2", "h2 v2", "", ("h3", "h7")),
                      NodeRewrite("t1", "t1 v2", "", ("h2", "h3", "h4", "h6")),),
            cause=DiffCause.DECOMPOSITION_SPLIT))
        text = plan_to_text(plan)
        parsed = plan_from_text(text)
        assert parsed == plan
        assert plan_to_text(parsed) == text

    def test_diff_round_trip(self):
        diff = PlanDiff(
            adds=(mk_node("X", ("Y",), informal="multi\nline ⊥"),
                  mk_node("Y", anchor=anchor_decl("Y"))),
            removes=("Z",),
            rewrites=(NodeRewrite("W", "w2", "sk", ("X",)),),
            cause=DiffCause.FAITHFULNESS_FAIL,
        )
        text = diff_to_text(diff)
        assert diff_from_text(text) == diff
        assert diff_to_text(diff_from_text(text)) == text

    def test_equal_inputs_produce_byte_equal_plans(self):
        nodes = [mk_node("a", anchor=anchor_decl("a")), mk_node("b"), mk_node("c", ("b",))]
        assert plan_to_text(create_plan(nodes)) == plan_to_text(create_plan(list(nodes)))

    def test_malformed_documents_rejected(self):
        with pytest.raises(PlanError):
            plan_from_text("not a plan\n")
        with pytest.raises(PlanError):
            diff_from_text("plandiff v1\ncause bogus-cause\n")


def _next_open_checking_deps(plan):
    """Selection as first defined: the earliest non-Closed node whose deps are all Closed."""
    for node_id in plan.order:
        node = plan.nodes[node_id]
        if node.status is Status.CLOSED:
            continue
        if all(plan.nodes[dep].status is Status.CLOSED for dep in node.deps):
            return node_id
    return None


def expected_nodes(plan, diff):
    """The node map a diff gives, statuses aside, built anew in the order a pass
    over the plan meets it: the survivors, each rewrite in its place, then the adds."""
    rewrites = {rewrite.node_id: rewrite for rewrite in diff.rewrites}
    nodes = {}
    for node_id, node in plan.nodes.items():
        if node_id in rewrites:
            r = rewrites[node_id]
            node = PlanNode(node_id, r.informal, r.sketch, r.deps, node.status, node.anchor)
        if node_id not in diff.removes:
            nodes[node_id] = node
    return {**nodes, **{node.node_id: node for node in diff.adds}}


class TestOrderBreakingDiffs:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_split_chains_sort_invalidate_and_refuse_as_the_oracles_do(self, seed):
        """Chains of split-shaped diffs, which point ids at later ids and at the diff's
        adds: the order is the least topological order by previous position, adds last
        in diff order, and the invalidated set is the oracle's.  A diff that closes a
        cycle is refused with the cycle a whole-plan pass finds, walked from the first
        id it leaves unplaced along each id's first unplaced dep, and leaves the plan and
        its carried maps as they were."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, max_nodes=30)
        for _ in range(6):
            diff = random_split_diff(rng, plan) if rng.random() < 0.7 else random_diff(rng, plan)
            nodes = expected_nodes(plan, diff)
            key = {node_id: i for i, node_id in enumerate((*plan.order,
                                                           *(n.node_id for n in diff.adds)))}
            order = oracle_order(nodes, key)
            before = (plan_to_text(plan), plan.edges, dict(plan.position), plan.change,
                      {node_id: list(users) for node_id, users in plan.dependents.items()})
            try:
                new, invalidated = apply_diff(plan, diff)
            except RejectedDiff as exc:
                unplaced = [node_id for node_id in nodes if node_id not in order]
                walk = [unplaced[0]]
                while walk.count(walk[-1]) < 2:
                    walk.append(next(dep for dep in nodes[walk[-1]].deps if dep in unplaced))
                assert str(exc) == "dependency cycle: " + " -> ".join(
                    walk[walk.index(walk[-1]):])
                assert (plan_to_text(plan), plan.edges, plan.position, plan.change,
                        plan.dependents) == before
                continue
            assert new.order == order
            assert invalidated == oracle_invalidated(plan, diff)
            plan = new


class TestRandomizedInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_selection_and_cached_edges_match_recomputation(self, seed):
        """Steps as the loop takes them (close or fail the selected node), reopens of a
        closed node, random status marks and diffs: selection through the cursor equals
        the definition, whether or not it was asked since the last step, and every id
        before the cursor is closed."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, max_nodes=25)
        for _ in range(30):
            if rng.random() < 0.8:  # a step the cursor must follow without being asked
                assert next_open_statement(plan) == _next_open_checking_deps(plan)
                assert is_complete(plan) is (_next_open_checking_deps(plan) is None)
            assert all(plan.nodes[node_id].status is Status.CLOSED
                       for node_id in plan.order[:plan._first_open])
            fresh = tuple((dep, node_id) for node_id in plan.order
                          for dep in plan.nodes[node_id].deps)
            assert plan.edges == fresh
            assert plan_from_text(plan_to_text(plan)).edges == fresh
            selected = _next_open_checking_deps(plan)
            closed = [node_id for node_id in plan.order
                      if plan.nodes[node_id].status is Status.CLOSED]
            step = rng.random()
            if step < 0.1:
                plan, _ = apply_diff(plan, random_diff(rng, plan))
            elif step < 0.2 and closed:
                plan = set_status(plan, rng.choice(closed), rng.choice([Status.OPEN,
                                                                         Status.FAILING]))
            elif step < 0.3:
                plan = set_status(plan, rng.choice(plan.order), rng.choice(list(Status)))
            elif selected is not None:
                status = Status.FAILING if step < 0.4 else Status.CLOSED
                plan = set_status(plan, selected, status)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_every_accepted_diff_keeps_the_anchor_id_and_its_decl_object(self, seed):
        """A diff can neither move the anchor nor change it: the anchor id and its
        AnchorDecl object, and with it the signature, survive every accepted diff, the
        anchor node's own rewrites included."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, max_nodes=25)
        anchor_id, decl = plan.anchor_id, plan.anchor
        for _ in range(8):
            diff = random_diff(rng, plan)
            if rng.random() < 0.5 and anchor_id not in {r.node_id for r in diff.rewrites}:
                node = plan.nodes[anchor_id]
                deps = tuple(dep for dep in node.deps if dep not in diff.removes)
                diff = dataclasses.replace(diff, rewrites=(*diff.rewrites, NodeRewrite(
                    anchor_id, node.informal + " (edited)", node.sketch, deps)))
            try:
                plan = apply_diff(plan, diff)[0]
            except RejectedDiff:
                continue
            assert plan.anchor_id == anchor_id
            assert plan.anchor is decl

    def test_topological_invariant_and_oracle_agreement(self):
        rng = random.Random(20260810)
        for _ in range(150):
            plan = random_dag_plan(rng, max_nodes=30)
            for node_id in plan.order:
                for dep in plan.nodes[node_id].deps:
                    assert plan.order.index(dep) < plan.order.index(node_id)
            diff = random_diff(rng, plan)
            expected = oracle_invalidated(plan, diff)
            new_plan, invalidated = apply_diff(plan, diff)
            assert invalidated == expected
            for node_id in invalidated:
                assert new_plan.nodes[node_id].status is Status.OPEN
            for node_id in set(new_plan.nodes) - invalidated - {a.node_id for a in diff.adds}:
                assert new_plan.nodes[node_id].status is plan.nodes[node_id].status
            for node_id in new_plan.order:
                for dep in new_plan.nodes[node_id].deps:
                    assert new_plan.order.index(dep) < new_plan.order.index(node_id)

    @given(st.lists(st.text(alphabet="abαβ∀ \n\"\\'", max_size=20), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_survives_arbitrary_text(self, texts):
        nodes = [mk_node(f"n{i}", tuple(f"n{j}" for j in range(i) if (i + j) % 3 == 0),
                         informal=text, sketch=text[::-1],
                         anchor=anchor_decl(f"n{i}") if i == len(texts) - 1 else None)
                 for i, text in enumerate(texts)]
        plan = create_plan(nodes)
        assert plan_from_text(plan_to_text(plan)) == plan


class TestPlantedCycle:
    """One back edge planted in a random DAG: every reader of the graph reports a closed
    cycle of dependency edges."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_create_plan_apply_diff_and_depth_layout_name_a_closed_cycle(self, seed):
        rng = random.Random(seed)
        plan = random_dag_plan(rng, max_nodes=25)
        dependents = {node_id: [] for node_id in plan.nodes}
        for node in plan.nodes.values():
            for dep in node.deps:
                dependents[dep].append(node.node_id)
        starts = [node_id for node_id in plan.order if dependents[node_id]]
        assume(starts)  # an edge to close a cycle over
        # Walk downstream from a node with a dependent; it then depends on where the walk ends.
        top = node_id = rng.choice(starts)
        while dependents[node_id] and (node_id == top or rng.random() < 0.6):
            node_id = rng.choice(dependents[node_id])
        node = plan.nodes[top]
        deps = {nid: plan.nodes[nid].deps for nid in plan.nodes}
        deps[top] = (*node.deps, node_id)

        planted = [plan.nodes[nid] for nid in plan.order]
        planted[plan.order.index(top)] = dataclasses.replace(node, deps=deps[top])
        with pytest.raises(CycleError) as created:
            create_plan(planted)
        assert oracle_closed_cycle(created.value.cycle, deps)

        rewrite = NodeRewrite(top, node.informal, node.sketch, deps[top])
        with pytest.raises(RejectedDiff) as rejected:
            apply_diff(plan, PlanDiff(rewrites=(rewrite,), cause=DiffCause.MATH_FAIL))
        assert isinstance(rejected.value.__cause__, CycleError)
        assert oracle_closed_cycle(rejected.value.__cause__.cycle, deps)

        edges = (*plan.edges, (node_id, top))
        frame = Frame(0, dict.fromkeys(rng.sample(plan.order, len(plan.order)), "not-yet"),
                      tuple(rng.sample(edges, len(edges))), 0)
        with pytest.raises(CycleError) as laid_out:
            depth_layout(frame)
        assert oracle_closed_cycle(laid_out.value.cycle, deps)
