"""Byte-identical CLI reports: the ``--output json`` stdout and exit code of
fixed configurations, recorded by ``run`` below before the linear-combination
refactor and kept in ``tests/data/golden_reports.json``.

A refactor must leave every report unchanged; a change that means to alter a
report rewrites its entry and says why.  The ``verify --n 1 --degree 4``
entry was rewritten when n = 1, which has no parameter to draw, became one
exact run (``oracle_mode`` "exact").  The ``qdet --n 3 --subset 1,3`` and
``classical --random 3 --n 3 --degree 5 --seed 2`` entries were rewritten
when each command came to declare only the options it reads: their
``config`` lost the keys of the options they no longer have (``mode``,
``seed`` and ``seeds`` for qdet; ``params``, ``mode`` and ``seeds`` for
classical) and nothing else changed.  The four ``koszul`` entries were
rewritten when exactness came to be certified by a contracting homotopy,
with no ranks and no specialization draws: their ``config`` lost ``mode``
and ``seeds``, each result lost ``ranks``, ``mode`` and ``seed``, and the
entries keyed ``koszul --n 3 --degree 3 --mode exact`` and ``koszul --n 2
--degree 3 --seeds 1`` were re-keyed without those flags, which ``koszul``
no longer has.  Every other key and value is unchanged.

The nine ``verify`` and ``twisted`` entries were rewritten when membership
became exact in every mode and ``--seeds`` and ``--mode specialize`` were
removed: every ``config`` lost ``seeds``, and ``mode`` reads "exact" where
it defaulted to "specialize".  In the three entries that ran specialized
(``verify --n 3 --degree 3 --seed 7``, ``twisted --n 2 --degree 4`` and
``verify --n 2 --degree 5 --params single --seed 3``, which was keyed with
``--seeds 2`` before) each result's ``oracle_mode`` reads "exact" instead
of "specialize(seed=...,draws=...)".  Every verdict, exit code, residual
count and other result value is unchanged.

The same nine entries were rewritten again when every setting came to be
stated once: each result lost ``oracle_mode``, which only repeated whether
``config.params`` is numeric, and the three ``twisted`` configs lost
``params``, since ``twisted`` always runs in one-parameter mode and has no
``--params``.  Every exit code, ``pass`` and residual count is unchanged,
and the six ``koszul``, ``qdet`` and ``classical`` entries are
byte-identical.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from qmm.cli import main

with open(os.path.join(os.path.dirname(__file__), "data", "golden_reports.json"), encoding="utf-8") as fh:
    REPORTS = json.load(fh)


def run(config: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(config.split() + ["--output", "json"])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("config", sorted(REPORTS))
def test_report_is_byte_identical(config):
    assert run(config) == REPORTS[config]
