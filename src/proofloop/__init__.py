"""proofloop: a recursive planning/lean/check loop for closing Lean 4 sorries."""

from .plan import (
    AnchorDecl,
    DiffCause,
    NodeRewrite,
    PlanDiff,
    PlanNode,
    ProofPlan,
    Status,
    apply_diff,
    create_plan,
    is_complete,
    next_open_statement,
)
from .agents import (
    AgentTask,
    CheckKind,
    CheckVerdict,
    Fixture,
    FixtureEntry,
    FixtureKey,
    LeanOutcome,
    LiveBackend,
    LiveConfig,
    LocalContext,
    ScriptedBackend,
    TaskKind,
    TokenUsage,
    assemble_context,
    invoke,
)
from .leanenv import (
    AuditReport,
    BuildReport,
    DEFAULT_PERMITTED_AXIOMS,
    RealVerifier,
    SimVerifier,
    Workspace,
    audit_verdict,
    signature_match,
)
from .ledger import (
    CostModel,
    Frame,
    RunLedger,
    RunStats,
    aggregate_stats,
    cost,
    depth_layout,
    export_trace,
    load_ledger,
    verify_replay,
)
from .looper import (
    LoopConfig,
    NextStep,
    RunOutcome,
    StopReason,
    Verdict,
    route_build_result,
    route_check_verdict,
    run,
)

__version__ = "0.1.0"
