"""The recursive outer loop: select, prove, check, replan, audit, stop.

One run walks the proof plan in dependency order.  Each open statement gets a
Lean work cycle (invoke, write, build, repeat up to the compile budget).  A
clean build goes to the faithfulness check before the loop advances; a build
that still carries sorries, or a cycle that exhausts its budget, goes to the
math check and then the decomposition check.  Any failed check turns into a
plan diff from the planning agent, downstream statements are invalidated, and
selection restarts from the top of the revised plan.  The run counts as solved
only when every statement is closed and the final workspace passes the
signature and kernel-level axiom audit.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from .agents import (
    AgentTask,
    AuthError,
    BackendUnavailable,
    CheckKind,
    CheckVerdict,
    LocalContext,
    MalformedResponse,
    TaskKind,
    assemble_context,
    invoke,
)
from .leanenv import (
    BuildReport,
    DEFAULT_PERMITTED_AXIOMS,
    VerifierError,
    Workspace,
    audit_verdict,
    find_anchor,
    normalize_signature,
    read_input,
    write_anchor,
)
from .ledger import (
    AUDIT_DETAIL, STATUS_EVENTS, EventKind, Outcome, RunLedger, StopReason, Verdict, open_ledger,
    utc_now_iso,
)
from .plan import (
    Change,
    DiffCause,
    PlanError,
    ProofPlan,
    Status,
    apply_diff,
    create_plan,
    is_complete,
    next_open_statement,
    plan_to_text,
    diff_to_text,
    set_status,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LoopConfig:
    wall_clock_budget: float = 4 * 3600.0
    compile_budget: int = 8
    replan_limit: int = 64
    check_retry_limit: int = 2
    permitted_axioms: frozenset[str] = DEFAULT_PERMITTED_AXIOMS
    stop_file: Path | None = None

    def __post_init__(self) -> None:
        if not self.wall_clock_budget >= 0:  # nan too: no elapsed time is >= nan
            raise ValueError("wall clock budget must be >= 0")
        for name in ("compile_budget", "replan_limit", "check_retry_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# After a check verdict: the next check, the cause of a replan, Status.CLOSED to
# close the node, or None to select the same node again.
_CHECK_ROUTES = {
    (CheckKind.FAITHFULNESS, True): Status.CLOSED,
    (CheckKind.FAITHFULNESS, False): DiffCause.FAITHFULNESS_FAIL,
    (CheckKind.MATH, True): CheckKind.DECOMPOSITION,
    (CheckKind.MATH, False): DiffCause.MATH_FAIL,
    (CheckKind.DECOMPOSITION, True): None,
    (CheckKind.DECOMPOSITION, False): DiffCause.DECOMPOSITION_SPLIT,
}


# ---------------------------------------------------------------------------
# The run itself.

class _Stop(Exception):
    def __init__(self, reason: StopReason, detail: str):
        self.reason = reason
        self.detail = detail
        super().__init__(detail)


class _Run:
    # The run's plan; None until the initial plan is accepted, then set only by _commit.
    plan: ProofPlan | None = None

    def __init__(self, input_file: Path, backend, verifier, config: LoopConfig,
                 workspace_dir: Path, ledger_path: Path | None, run_id: str | None):
        self.input_text = read_input(input_file)
        self.anchor = find_anchor(self.input_text)
        self.backend = backend
        self.verifier = verifier
        self.config = config
        if run_id is None:
            digest = hashlib.sha256()
            digest.update(self.input_text.encode("utf-8"))
            digest.update(repr((config.wall_clock_budget, config.compile_budget,
                                config.replan_limit, config.check_retry_limit,
                                sorted(config.permitted_axioms))).encode())
            run_id = digest.hexdigest()[:12]
        self.ledger = open_ledger(run_id, ledger_path, meta={
            "input": input_file.name, "started": utc_now_iso(),
            "verifier": getattr(verifier, "mode", "?"),
        })
        self.ws = Workspace(root_dir=workspace_dir)
        verifier.init_workspace(self.ws)
        write_anchor(self.ws.root_dir, self.anchor)
        self.node_diag: dict[str, str] = {}
        self.started = time.monotonic()

    # -- gates -------------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def gate(self, phase: str) -> None:
        if self.config.stop_file is not None and self.config.stop_file.exists():
            raise _Stop(StopReason.TIME_BUDGET, f"stop file present before {phase}")
        if self.elapsed() >= self.config.wall_clock_budget:
            raise _Stop(StopReason.TIME_BUDGET, f"wall clock budget reached before {phase}")

    # -- agent plumbing ------------------------------------------------------

    def _attempt(self, task: AgentTask, phase: str, accept):
        """Invoke ``task`` until ``accept`` takes the payload; return what it returns.

        A malformed payload and a payload that ``accept`` rejects with a
        :class:`PlanError` each use one of the ``1 + check_retry_limit`` tries;
        transport and credential failures stop the run at once.
        """
        last: Exception | None = None
        for _ in range(1 + self.config.check_retry_limit):
            self.gate(phase)
            try:
                payload, usage, elapsed = invoke(self.backend, task)
            except MalformedResponse as exc:
                last = exc
                logger.warning("malformed response during %s: %s", phase, exc)
                continue
            except (BackendUnavailable, AuthError) as exc:
                raise _Stop(StopReason.BACKEND_FAILURE, f"{phase}: {exc}") from exc
            self.ledger.record_usage(
                task.kind.value,
                task.check_kind.value if task.check_kind else None,
                task.subject.node_id, usage, elapsed,
            )
            try:
                return accept(payload)
            except PlanError as exc:
                last = exc
                logger.warning("payload rejected during %s: %s", phase, exc)
        raise _Stop(StopReason.BACKEND_FAILURE, f"{phase}: {last}")

    # -- plan bookkeeping ----------------------------------------------------

    def _commit(self, plan: ProofPlan, change: Change | None = None) -> None:
        """Make ``plan`` the run's plan and record its frame, written from ``change``, the
        status step's change, or else the change the plan carries; every plan change
        comes here."""
        self.plan = plan
        self.ledger.snapshot_frame(plan, change)

    def _status_event(self, kind: EventKind, node_id: str, detail: str) -> None:
        """Record ``kind`` for ``node_id`` and commit the status ``STATUS_EVENTS`` gives it."""
        self.ledger.record_event(kind, node_id, detail)
        self._commit(set_status(self.plan, node_id, STATUS_EVENTS[kind]), Change((node_id,)))

    # -- phases ----------------------------------------------------------------

    def initial_plan(self) -> None:
        ctx = LocalContext(
            statement=self.anchor.signature_text,
            anchor_signature=self.anchor.signature_text,
            lean_source=self.input_text,
        )

        def accept(diff) -> ProofPlan:
            plan = create_plan(list(diff.adds))
            anchor = plan.anchor
            if anchor.decl_name != self.anchor.decl_name:
                raise PlanError("initial plan anchors a different declaration")
            if (normalize_signature(anchor.signature_text)
                    != normalize_signature(self.anchor.signature_text)):
                raise PlanError("initial plan carries a different anchor signature")
            return plan

        plan = self._attempt(AgentTask(TaskKind.PLAN_INITIAL, ctx), "initial planning", accept)
        self.ledger.record_event(
            EventKind.PLAN_CREATED, plan.anchor_id,
            f"initial plan with {len(plan.nodes)} statements",
            data={"plan": plan_to_text(plan)},
        )
        self._commit(plan)

    def lean_cycle(self, node_id: str) -> tuple[str, BuildReport]:
        """Invoke-write-build until the build compiles or the budget runs out."""
        assert self.plan is not None
        budget = self.config.compile_budget
        source: str | None = None
        report: BuildReport | None = None
        for attempt in range(1, budget + 1):
            ctx = assemble_context(self.plan, node_id, lean_source=source,
                                   build_errors=self.node_diag.get(node_id))
            source = self._attempt(AgentTask(TaskKind.LEAN_WORK, ctx), f"lean work on {node_id}",
                                   lambda lean: lean.source)
            self.ws.write_node_source(node_id, source)
            self.gate(f"build for {node_id}")
            try:
                report = self.verifier.build(self.ws)
            except VerifierError as exc:
                raise _Stop(StopReason.BACKEND_FAILURE, f"build for {node_id}: {exc}") from exc
            summary = ("clean" if report.clean
                       else f"{len(report.sorry_sites)} sorry site(s)" if report.compiled
                       else "build errors")
            self.ledger.record_event(EventKind.LEAN_ATTEMPT, node_id,
                                     f"attempt {attempt}/{budget}: {summary}")
            if report.compiled:
                break
            self.node_diag[node_id] = report.diagnostics
        assert report is not None and source is not None
        if report.compiled:
            self.node_diag.pop(node_id, None)
            if report.clean:
                self.ledger.record_event(EventKind.BUILD_CLEAN, node_id,
                                         f"clean after {attempt} attempt(s)")
            else:
                self.ledger.record_event(
                    EventKind.BUILD_SORRIES, node_id,
                    f"{len(report.sorry_sites)} sorry site(s) after {attempt} attempt(s)")
            return source, report
        self.ledger.record_event(EventKind.BUILD_SORRIES, node_id,
                                 f"exhausted compile budget ({attempt} attempts)")
        if self.plan.nodes[node_id].status is not Status.FAILING:
            self._status_event(EventKind.NODE_FAILING, node_id, "compile budget exhausted")
        return source, report

    def check(self, kind: CheckKind, node_id: str, source: str,
              errors: str | None) -> CheckVerdict:
        assert self.plan is not None
        ctx = assemble_context(self.plan, node_id, lean_source=source,
                               build_errors=errors, check_kind=kind)
        verdict = self._attempt(AgentTask(TaskKind.CHECK, ctx, check_kind=kind),
                                f"{kind.value} check on {node_id}", lambda verdict: verdict)
        event = EventKind.CHECK_PASS if verdict.passed else EventKind.CHECK_FAIL
        detail = kind.value + (f": {verdict.note}" if verdict.note else "")
        self.ledger.record_event(event, node_id, detail)
        return verdict

    def replan(self, cause: DiffCause, node_id: str) -> None:
        assert self.plan is not None
        # Every accepted diff is one revision, so the revision counts the replans.
        if self.plan.revision >= self.config.replan_limit:
            raise _Stop(StopReason.REPLAN_LIMIT,
                        f"replan limit of {self.config.replan_limit} reached")
        ctx = assemble_context(self.plan, node_id,
                               build_errors=self.node_diag.get(node_id))

        def accept(diff):
            new_plan, invalidated = apply_diff(self.plan, diff)
            return diff, new_plan, invalidated

        diff, new_plan, invalidated = self._attempt(
            AgentTask(TaskKind.PLAN_REVISE, ctx, cause=cause), f"replanning at {node_id}", accept)
        stale = invalidated.union(diff.removes)
        # Only ids that have a file or a diagnostic need clearing.
        for stale_id in sorted(stale & self.ws.node_files.keys()):
            self.ws.remove_node_source(stale_id)
        for stale_id in stale & self.node_diag.keys():
            del self.node_diag[stale_id]
        self.ledger.record_event(
            EventKind.DIFF_APPLIED, node_id,
            f"cause={cause.value}: +{len(diff.adds)} -{len(diff.removes)} "
            f"~{len(diff.rewrites)}, invalidated {len(invalidated)}",
            data={"diff": diff_to_text(diff),
                  "invalidated": sorted(invalidated), "cause": cause.value},
        )
        self._commit(new_plan)
        self.ledger.record_event(EventKind.RESTART, None,
                                 "selection restarts from the top of the plan")

    def success_exit(self) -> bool:
        assert self.plan is not None
        try:
            report = audit_verdict(self.ws, self.anchor.signature_text,
                                   self.anchor.decl_name, self.verifier,
                                   self.config.permitted_axioms)
        except VerifierError as exc:
            raise _Stop(StopReason.BACKEND_FAILURE, f"final audit: {exc}") from exc
        if report.passed:
            axioms = ",".join(sorted(report.axioms_used)) or "(none)"
            self.ledger.record_event(EventKind.CHECK_PASS, self.plan.anchor_id,
                                     f"{AUDIT_DETAIL} pass; axioms={axioms}")
            self.ledger.record_event(EventKind.SUCCESS_EXIT, self.plan.anchor_id,
                                     "anchored target closed with original signature")
            return True
        self.ledger.record_event(EventKind.CHECK_FAIL, self.plan.anchor_id,
                                 f"{AUDIT_DETAIL} {report.detail}")
        return False

    def main_loop(self) -> None:
        assert self.plan is not None
        while True:
            if is_complete(self.plan):
                if self.success_exit():
                    return
                if self.plan.revision >= self.config.replan_limit:
                    raise _Stop(StopReason.AUDIT_FAIL, "final audit failed with no replans left")
                # The audit-fail reopen: verify_replay mirrors it on the audit CheckFail.
                self._commit(set_status(self.plan, self.plan.anchor_id, Status.OPEN),
                             Change((self.plan.anchor_id,)))
                self.replan(DiffCause.FAITHFULNESS_FAIL, self.plan.anchor_id)
                continue
            node_id = next_open_statement(self.plan)
            assert node_id is not None
            source, report = self.lean_cycle(node_id)
            step = CheckKind.FAITHFULNESS if report.clean else CheckKind.MATH
            while isinstance(step, CheckKind):
                verdict = self.check(step, node_id, source, report.diagnostics or None)
                step = _CHECK_ROUTES[step, verdict.passed]
            if step is Status.CLOSED:
                self._status_event(EventKind.NODE_CLOSED, node_id, "faithfulness passed")
            elif step is not None:
                self.replan(step, node_id)

    def execute(self) -> tuple[Outcome, RunLedger]:
        verdict, reason = Verdict.SOLVED, None
        try:
            self.gate("initial planning")
            self.initial_plan()
            self.main_loop()
        except _Stop as stop:
            self.ledger.record_event(EventKind.BUDGET_STOP, None,
                                     f"{stop.reason.value}: {stop.detail}")
            verdict, reason = Verdict.UNFINISHED, stop.reason
        self.ledger.record_outcome(Outcome(
            verdict, reason, self.elapsed(),
            statement_count=len(self.plan.nodes) if self.plan else 0,
            final_plan_revision=self.plan.revision if self.plan else 0,
        ))
        return self.ledger.outcome, self.ledger


def run(input_file: Path, backend, verifier, config: LoopConfig, *,
        workspace_dir: Path, ledger_path: Path | None = None,
        run_id: str | None = None) -> tuple[Outcome, RunLedger]:
    """Run the full loop on one input file; return the ledger's outcome and the ledger."""
    state = _Run(input_file, backend, verifier, config, workspace_dir, ledger_path, run_id)
    return state.execute()
