"""proofloop: a recursive planning/lean/check loop for closing Lean 4 sorries.

The package root carries what a library caller needs to run the loop; the
plan, agents, verifier and ledger APIs live in their own modules.
"""

from .agents import ScriptedBackend
from .leanenv import SimVerifier
from .looper import LoopConfig, run

__version__ = "0.1.0"
