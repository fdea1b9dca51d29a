"""Seeded-failure reproducibility, end to end through a subprocess.

The contract every layer (proptest, chaos, sim) promises: a failing
case prints a replay command which, pasted into a shell, reproduces the
same failure.  Here we arm a canary invariant, let the harness catch
and shrink it, then *literally execute the printed command* and require
the child pytest run to fail with the same violation.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import run_and_shrink

pytestmark = [pytest.mark.sim, pytest.mark.slow]

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_printed_replay_command_reproduces_the_failure():
    seed, events, canary = 4, 24, "height-cap"  # fires at event 8
    with pytest.raises(AssertionError) as info:
        run_and_shrink(seed, events, canary=canary)
    message = str(info.value)

    match = re.search(r"replay: (REPRO_SIM_REPLAY=\S+.*)$", message,
                      re.MULTILINE)
    assert match, f"no replay command printed in:\n{message}"
    command = match.group(1)
    assert f"REPRO_SIM_REPLAY={seed}:" in command
    assert f"REPRO_SIM_CANARY={canary}" in command

    env = dict(os.environ)
    env.pop("REPRO_SIM_SEED", None)
    env.pop("REPRO_SIM_EVENTS", None)
    # The command carries its own env assignments; run it verbatim.
    proc = subprocess.run(
        ["bash", "-c", command.replace("python ", f"{sys.executable} ", 1)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode != 0, (
        f"replay command passed instead of reproducing:\n{command}\n{output}"
    )
    assert canary in output, (
        f"child run failed for a different reason:\n{output}"
    )
