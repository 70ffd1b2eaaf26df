"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports ``proofloop.cli`` from the checkout's ``src/`` and loads a fixture and
a sim rule table the way ``proofloop run`` does, then prints one JSON line with
the import time, the fixture parse time and the number of fixture entries.

    python3 perfbench/setup_probe.py SRC_DIR FIXTURE RULES
"""

import sys
import time

start = time.perf_counter()
src_dir, fixture_path, rules_path = sys.argv[1:4]
sys.path.insert(0, src_dir)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import proofloop.cli  # noqa: E402,F401
from proofloop.agents import load_fixture  # noqa: E402
from proofloop.leanenv import load_sim_rules  # noqa: E402

imported = time.perf_counter()
fixture = load_fixture(Path(fixture_path))
parsed = time.perf_counter()
load_sim_rules(Path(rules_path))
print(json.dumps({"import_s": imported - start, "fixture_parse_s": parsed - imported,
                  "entries": len(fixture.entries)}))
