"""The reference task: how fast this host runs Python objects right now.

On a shared host the speed of the machine moves by up to a factor of two, in
spells that last from seconds to minutes, and Python code that allocates and
walks dicts, strings and JSON slows more than a tight arithmetic loop does.
The timed pass runs this task before every timed operation and scales each
timing by how long the task took (see ``bench.scaled``).  The task does the
same kind of work as the harness, touches no proofloop code, and is the same
on every commit and every seed.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

# The host speed the scaled timings are expressed at: one task in 10 ms.
NOMINAL_S = 0.010

_rng = random.Random(1729)
_DOC = {
    f"n{i}": {"id": i, "name": f"stmt-{i}", "state": "open",
              "deps": [f"n{_rng.randrange(max(i, 1))}" for _ in range(3)]}
    for i in range(2000)
}


def reference_task() -> float:
    """Run the task once; return its wall time in seconds."""
    t0 = perf_counter()
    doc = json.loads(json.dumps(_DOC))
    users: dict[str, list[str]] = {}
    for key, node in doc.items():
        for dep in node["deps"]:
            users.setdefault(dep, []).append(key)
    "\n".join(f"{key} {node['state']} {len(users.get(key, ()))}"
              for key, node in sorted(doc.items()))
    return perf_counter() - t0
