"""Operator entry point: run, replay, audit, trace and stats commands.

Every command prints exactly one machine-readable JSON summary line on stdout;
human-oriented logs go to stderr.  Exit codes: 0 success, 1 unfinished run or
failed audit/replay, 2 usage or input error, 3 environment error (missing
toolchain or credentials).  Option precedence is command-line flag over config
file over environment variable; the live-backend auth token is read only from
the environment, never from a flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import sys
from decimal import InvalidOperation
from pathlib import Path

from .agents import (
    TOKEN_CLASSES,
    AuthError,
    FixtureParse,
    LiveBackend,
    ScriptedBackend,
    parse_fixture,
)
from .leanenv import (
    InputError,
    RealVerifier,
    SimVerifier,
    ToolchainMissing,
    VerifierError,
    audit_verdict,
    find_anchor,
    find_signature,
    load_sim_rules,
    read_anchor,
    read_input,
    read_workspace,
)
from .ledger import (
    CostModel,
    LedgerError,
    ReplayMismatch,
    ZERO_RATES,
    Verdict,
    aggregate_stats,
    cost,
    export_trace,
    load_ledger,
    read_ledger_records,
    render_stats_row,
    verify_replay,
)
from .looper import LoopConfig, run
from .plan import PlanError

logger = logging.getLogger("proofloop")

EXIT_OK = 0
EXIT_UNFINISHED = 1
EXIT_USAGE = 2
EXIT_ENV = 3

LOCK_FILE = ".proofloop.lock"

_DURATION_RE = re.compile(r"^(?:(\d+)h)?(?:(\d+)m)?(?:(\d+(?:\.\d+)?)s)?$")


class UsageError(Exception):
    pass


def parse_duration(text: str) -> float:
    """Accept '4h', '90m', '10s', '1h30m', or a bare number of seconds; never nan or inf."""
    text = text.strip()
    try:
        total = float(text)
    except ValueError:
        match = _DURATION_RE.match(text)
        if not match or not any(match.groups()):
            raise UsageError(f"cannot parse duration {text!r}") from None
        hours, minutes, seconds = match.groups()
        total = float(hours or 0) * 3600 + float(minutes or 0) * 60 + float(seconds or 0)
    if not math.isfinite(total):
        raise UsageError(f"duration {text!r} is not finite")
    return total


def _emit(summary: dict) -> None:
    sys.stdout.write(json.dumps(summary, ensure_ascii=False, default=str) + "\n")


def _reader(types: tuple, convert=lambda value: value, choices: tuple = ()):
    """Read an option value of one of ``types`` (a bool is none of them) through ``convert``."""
    def read(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise UsageError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
        if choices and value not in choices:
            raise UsageError(f"expected one of {', '.join(choices)}, got {value!r}")
        return convert(value)
    return read


def _axioms(value: str | list) -> frozenset[str] | None:
    names = value.split() if isinstance(value, str) else value
    if not all(isinstance(name, str) for name in names):
        raise UsageError(f"expected axiom names, got {value!r}")
    return frozenset(names) or None  # empty means the default set


# The reader of each option of run and audit, by dest; toolchain_root has no flag.
OPTION_READERS = {
    **dict.fromkeys(["wall_clock", "build_timeout"],
                    _reader((str, int, float), lambda value: parse_duration(str(value)))),
    **dict.fromkeys(["compile_budget", "replan_limit", "check_retry_limit"],
                    _reader((str, int), int)),
    **dict.fromkeys(["fixture", "sim_rules", "stop_file", "rates", "out", "toolchain_root"],
                    _reader((str,), lambda value: Path(value) if value else None)),
    **dict.fromkeys(["endpoint", "model", "run_id"], _reader((str,))),
    "backend": _reader((str,), choices=("scripted", "live")),
    "verifier": _reader((str,), choices=("sim", "real")),
    "permit": _reader((str, list), _axioms),
}


def _resolve(args: argparse.Namespace) -> None:
    """Type each option: the flag, else the config file, else ``PROOFLOOP_<NAME>``, else None."""
    config: dict = {}
    config_path = args.config or os.environ.get("PROOFLOOP_CONFIG")
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError(f"config file {config_path} is not a JSON object")
    for name in [name for name in OPTION_READERS if hasattr(args, name)]:  # in a fixed order
        value = getattr(args, name)
        if value is None:
            value = config.get(name, os.environ.get("PROOFLOOP_" + name.upper()))
        try:
            setattr(args, name, None if value is None else OPTION_READERS[name](value))
        except (UsageError, ValueError) as exc:
            raise UsageError(f"{name}: {exc}") from None


def _given(args: argparse.Namespace, **fields: str) -> dict:
    """Keyword arguments from the options that are set; each keyword names its option."""
    return {key: getattr(args, name) for key, name in fields.items()
            if getattr(args, name) is not None}


def _make_backend(args: argparse.Namespace):
    if args.backend == "live":
        if not args.endpoint or not args.model:
            raise UsageError("live backend needs --endpoint and --model")
        backend = LiveBackend(args.endpoint, args.model)
        backend.token()  # missing credentials are an environment error, not a failed run
        return backend
    if not args.fixture:
        raise UsageError("scripted backend needs --fixture")
    return ScriptedBackend(parse_fixture(read_input(args.fixture)))


def _make_verifier(args: argparse.Namespace):
    if args.verifier != "real":
        return SimVerifier(load_sim_rules(args.sim_rules))
    options = _given(args, build_timeout="build_timeout")
    if args.toolchain_root:
        options["lake_cmd"] = str(args.toolchain_root / "bin" / "lake")
    return RealVerifier(**options)


def _rates(rates_path: Path) -> CostModel:
    try:
        data = json.loads(rates_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {rates_path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"rates file {rates_path} is not a JSON object")
    if unknown := [key for key in data if key not in TOKEN_CLASSES]:
        raise UsageError(f"rates file {rates_path}: {unknown[0]!r} is not one of {TOKEN_CLASSES}")
    try:
        return CostModel(*(data.get(name, 0) for name in TOKEN_CLASSES))
    except InvalidOperation as exc:
        raise UsageError(f"rates file {rates_path} has a non-numeric rate") from exc


class _WorkspaceLock:
    def __init__(self, workspace_dir: Path):
        self.path = workspace_dir / LOCK_FILE

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise UsageError(f"workspace is locked by {self.path}") from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc_info):
        self.path.unlink(missing_ok=True)


def cmd_run(args: argparse.Namespace) -> int:
    input_file = Path(args.file)
    if not input_file.is_file():
        raise UsageError(f"input file {input_file} does not exist")
    out_dir = args.out or Path("proofloop-out")
    workspace_dir = out_dir / "workspace"
    ledger_path = out_dir / "ledger.jsonl"
    config = LoopConfig(**_given(
        args, wall_clock_budget="wall_clock", compile_budget="compile_budget",
        replan_limit="replan_limit", check_retry_limit="check_retry_limit",
        permitted_axioms="permit", stop_file="stop_file"))
    rates = _rates(args.rates) if args.rates else ZERO_RATES
    backend = _make_backend(args)
    verifier = _make_verifier(args)
    with _WorkspaceLock(workspace_dir):
        outcome, ledger = run(input_file, backend, verifier, config,
                              workspace_dir=workspace_dir, ledger_path=ledger_path,
                              run_id=args.run_id)
    total = ledger.usage_total
    _emit({
        "command": "run",
        "verdict": outcome.verdict.value,
        "reason": outcome.reason.value if outcome.reason else None,
        "plan_size": outcome.statement_count,
        "revision": outcome.final_plan_revision,
        "wall_clock": round(outcome.wall_clock, 3),
        "frames": len(ledger.frames),
        "usage": total.as_dict(),
        "cost_usd": str(cost(total, rates)),
        "ledger": str(ledger_path),
        "workspace": str(workspace_dir),
    })
    return EXIT_OK if outcome.verdict is Verdict.SOLVED else EXIT_UNFINISHED


def _load_anchor(args: argparse.Namespace, workspace_dir: Path) -> tuple[str, str]:
    """Resolve (decl name, signature) from --anchor/--decl or the sidecar file."""
    if args.anchor:
        text = read_input(Path(args.anchor))
        if not args.decl:
            found = find_anchor(text)
            return found.decl_name, found.signature_text
        return args.decl, find_signature({args.anchor: text}, args.decl).normalized
    anchor = read_anchor(workspace_dir)
    if anchor is None:
        raise UsageError("no anchor information: pass --anchor FILE or audit a run workspace")
    return anchor


def cmd_audit(args: argparse.Namespace) -> int:
    workspace_dir = Path(args.workspace)
    if not workspace_dir.is_dir():
        raise UsageError(f"workspace {workspace_dir} does not exist")
    verifier = _make_verifier(args)
    verifier.ensure_available()
    decl, signature = _load_anchor(args, workspace_dir)
    report = audit_verdict(read_workspace(workspace_dir), signature, decl, verifier,
                           **_given(args, permitted="permit"))
    _emit({
        "command": "audit",
        "pass": report.passed,
        "signature_match": report.signature_match,
        "axioms": sorted(report.axioms_used),
        "forbidden": [list(x) for x in report.forbidden_occurrences],
        "detail": report.detail,
    })
    return EXIT_OK if report.passed else EXIT_UNFINISHED


def cmd_replay(args: argparse.Namespace) -> int:
    try:  # records are read as replay goes, so the first fault in the file decides
        frames, diffs = verify_replay(read_ledger_records(Path(args.ledger)))
    except ReplayMismatch as exc:
        _emit({"command": "replay", "consistent": False, "error": str(exc)})
        return EXIT_UNFINISHED
    _emit({"command": "replay", "consistent": True, "frames": frames, "diffs": diffs,
           "note": "frames consistent"})
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    path = Path(args.ledger)
    ledger = load_ledger(path)
    rendered = export_trace(ledger, args.format)
    out = Path(args.out) if args.out else path.with_suffix(f".{args.format}")
    out.write_text(rendered, encoding="utf-8")
    _emit({"command": "trace", "format": args.format, "frames": len(ledger.frames),
           "out": str(out)})
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    stats = aggregate_stats([load_ledger(Path(p)) for p in args.ledgers])
    fields = {name: round(value, 6) for name, value in dataclasses.asdict(stats).items()
              if name != "runs"}
    _emit({"command": "stats", "runs": stats.runs, "row": render_stats_row(stats), **fields})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofloop",
        description="Close sorry declarations in a Lean 4 file with a recursive "
                    "planning/lean/check agent loop.",
    )
    parser.add_argument("--log-level", default=os.environ.get("PROOFLOOP_LOG", "INFO"))
    sub = parser.add_subparsers(dest="command", required=True)

    # The options run and audit share: the verifier, the permitted axioms and a config file.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--permit", action="append", help="permitted axiom (repeatable)")
    shared.add_argument("--verifier", metavar="{sim,real}")
    shared.add_argument("--sim-rules", help="rule table for the sim verifier")
    shared.add_argument("--build-timeout", help="per-build timeout for the real verifier")
    shared.add_argument("--config", help="JSON config file")
    shared.set_defaults(toolchain_root=None)  # a setting without a flag

    p_run = sub.add_parser("run", parents=[shared], help="run the loop on a .lean file")
    p_run.add_argument("file")
    p_run.add_argument("--backend", metavar="{scripted,live}")
    p_run.add_argument("--fixture", help="fixture file for the scripted backend")
    p_run.add_argument("--wall-clock", help="e.g. 4h, 30m, 10s")
    p_run.add_argument("--compile-budget")
    p_run.add_argument("--replan-limit")
    p_run.add_argument("--check-retry-limit")
    p_run.add_argument("--out", help="output directory (ledger + workspace)")
    p_run.add_argument("--rates", help="JSON cost-model rates file")
    p_run.add_argument("--endpoint", help="live backend endpoint URL")
    p_run.add_argument("--model", help="live backend model name")
    p_run.add_argument("--stop-file", help="cooperative cancellation file")
    p_run.add_argument("--run-id")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", parents=[shared],
                             help="audit a workspace against the solved condition")
    p_audit.add_argument("workspace")
    p_audit.add_argument("--decl", help="target declaration name")
    p_audit.add_argument("--anchor", help=".lean file carrying the original declaration")
    p_audit.set_defaults(func=cmd_audit)

    p_replay = sub.add_parser("replay", help="re-execute a ledger's diffs and verify frames")
    p_replay.add_argument("ledger")
    p_replay.set_defaults(func=cmd_replay)

    p_trace = sub.add_parser("trace", help="export the frame sequence of a ledger")
    p_trace.add_argument("ledger")
    p_trace.add_argument("--format", choices=["text", "dot"], default="text")
    p_trace.add_argument("--out")
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser("stats", help="aggregate statistics over solved-run ledgers")
    p_stats.add_argument("ledgers", nargs="+")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, str(args.log_level).upper(), logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s", force=True)
    # The one map from exceptions to exit codes.  ToolchainMissing is a VerifierError,
    # so the environment arm comes first; KeyError and ValueError come from option
    # values and ledger records of the wrong shape.
    try:
        if args.command in ("run", "audit"):
            _resolve(args)
        return args.func(args)
    except (ToolchainMissing, AuthError) as exc:
        logger.error("%s", exc)
        return EXIT_ENV
    except (UsageError, InputError, FixtureParse, LedgerError, PlanError, VerifierError,
            OSError, KeyError, ValueError) as exc:
        logger.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
