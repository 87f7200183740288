"""Record ``reference.json``: what every benchmark invocation must reproduce.

    python3 perfbench/record_reference.py

For each (mode, bundled scenario) a workload uses, runs the invocation once
and stores its exit code, its ``(kind, variant, passed)`` verdicts and the
SHA-256 of each CSV trace.  The dense workload is checked against the
verdicts of the bundled ``check``.  Re-record only when a change is meant to
alter outputs, and say so in the change.
"""

import json

import bootstrap

bootstrap.prepare()
import harness  # noqa: E402
from osscontrol import scenarios  # noqa: E402

reference = {}
for workload in harness.WORKLOADS.values():
    for mode, name in workload.invocations:
        outcome = harness.execute(mode, scenarios.load_scenario(name))
        reference[outcome.key] = outcome.record()
        print(outcome.key, outcome.exit_code, len(outcome.traces), "traces")
lines = [f"  {json.dumps(key)}: {json.dumps(record)}" for key, record in sorted(reference.items())]
with open(harness.REFERENCE_PATH, "w") as f:
    f.write("{\n" + ",\n".join(lines) + "\n}\n")
