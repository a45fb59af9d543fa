"""Run the doctests of every module that has them under pytest; a module
with no examples fails rather than passing vacuously."""

import doctest

import pytest

import hurwitz.algebra
import hurwitz.ansatz
import hurwitz.cutjoin
import hurwitz.golden
import hurwitz.hodge
import hurwitz.linalg
import hurwitz.oracle
import hurwitz.partitions
import hurwitz.simple_hurwitz
import hurwitz.table

MODULES = [
    hurwitz.algebra,
    hurwitz.ansatz,
    hurwitz.cutjoin,
    hurwitz.golden,
    hurwitz.hodge,
    hurwitz.linalg,
    hurwitz.oracle,
    hurwitz.partitions,
    hurwitz.simple_hurwitz,
    hurwitz.table,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
