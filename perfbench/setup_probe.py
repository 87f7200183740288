"""Print the set-up seconds of one fresh benchmark process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is ``import osscontrol`` plus ``load_scenario`` for every scenario of
the workload.  Generating the dense workload's documents is not timed.
"""

import sys
import time

import bootstrap

bootstrap.prepare()
start = time.perf_counter()
import osscontrol.scenarios  # noqa: E402

imported = time.perf_counter() - start
bootstrap.check_imported(osscontrol)

import harness  # noqa: E402

sources = harness.scenario_sources(harness.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
start = time.perf_counter()
for source in sources:
    osscontrol.scenarios.load_scenario(source)
print(imported + time.perf_counter() - start)
