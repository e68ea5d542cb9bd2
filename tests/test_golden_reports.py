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
classical) and nothing else changed.
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
