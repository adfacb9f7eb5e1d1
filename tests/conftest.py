"""Shared fixtures: the mu=(3,3,2,1^8), lambda=(3,2,2,1) worked example.

Also loads a derandomized Hypothesis profile with a bounded example count,
so the property tests draw the same examples on every run.
"""

import pytest
from hypothesis import settings

from nilpairs.fields import GF, QQ, FieldSpec
from nilpairs.matrix import ExactMatrix
from nilpairs.partitions import Partition, parse_partition

MU_FIXTURE = parse_partition("3,3,2,1^8")
LAM_FIXTURE = parse_partition("3,2,2,1")

settings.register_profile("nilpairs", derandomize=True, database=None, max_examples=40, deadline=None)
settings.load_profile("nilpairs")


def reduced_fixture(field: FieldSpec = QQ) -> ExactMatrix:
    """The reduced 16x16 matrix with three A12 hooks, Y hooks z1=z3=z4=1, z2=0.

    Block layout: core rows/cols (3,3,2) then lambda blocks (3,2,2,1); the
    nonzero entries are the three A12 corners, J_lambda, and three A21 corners.
    """
    n = 16
    rows = [[0] * n for _ in range(n)]
    for r, c in [(0, 8), (3, 11), (6, 15)]:  # A12 corner hooks
        rows[r][c] = 1
    for r, c in [(8, 9), (9, 10), (11, 12), (13, 14)]:  # J_lambda
        rows[r][c] = 1
    for r, c in [(10, 2), (14, 5), (15, 7)]:  # A21 corners (z2'' = 0)
        rows[r][c] = 1
    return ExactMatrix(field, rows)


def preduction_fixture(field: FieldSpec = GF(7)) -> ExactMatrix:
    """An instance of the pre-reduction pattern: A22 = J_lambda, arbitrary
    x/y/z values with the y-corner matrix of rank 3 and column 2 proportional
    to column 1."""
    n = 16
    rows = [[0] * n for _ in range(n)]
    # core corner entries x (A11), arbitrary
    x_positions = [(0, 2), (0, 5), (0, 7), (3, 2), (3, 5), (3, 7), (6, 2), (6, 5), (6, 7)]
    for i, (r, c) in enumerate(x_positions):
        rows[r][c] = (2 * i + 1) % 7
    # A12: y values on the first rows of core blocks; corner columns are the
    # first column of each lambda block (cols 8, 11, 13, 15)
    x_cols = {8: (1, 2, 3), 11: (2, 4, 6), 13: (0, 1, 0), 15: (1, 0, 1)}  # col2 = 2*col1
    for c, vals in x_cols.items():
        for t, v in zip((0, 3, 6), vals):
            rows[t][c] = v
    # non-corner A12 entries, arbitrary
    for i, (r, c) in enumerate([(0, 9), (0, 12), (3, 10), (3, 14), (6, 9), (6, 12), (6, 14)]):
        rows[r][c] = (3 * i + 2) % 7
    # A22 = J_lambda
    for r, c in [(8, 9), (9, 10), (11, 12), (13, 14)]:
        rows[r][c] = 1
    # A21: z values, any rows of the ones part at the last columns of core blocks
    for i, (r, c) in enumerate([(8, 2), (10, 2), (10, 5), (12, 7), (13, 5), (15, 2), (15, 7)]):
        rows[r][c] = (5 * i + 1) % 7
    return ExactMatrix(field, rows)


@pytest.fixture
def fixture_matrix():
    return reduced_fixture()


@pytest.fixture
def fixture_mu():
    return MU_FIXTURE


@pytest.fixture
def fixture_lam():
    return LAM_FIXTURE
