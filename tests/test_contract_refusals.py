"""The scale refusals of the byte-contract ledger, pinned in tier-1.

``tests/contract.py`` keeps digests of every CLI call and is compared by
hand with a ledger recorded on the parent commit.  Its refused
``SCALE_CASES`` rows do not depend on the BLAS: their messages carry only
integer pivots, shapes and exact asymmetries.  So each ``density --log``
call's exit code and exact stderr are pinned here, run in process on the
ledger's own inputs.
"""

import contextlib
import io

import pytest

import contract
from tensorstat.cli import main

# case: (exit code, stderr); stdout is empty for every one.
REFUSALS = {
    "wrong-shape": (2, "error: scale shape 2 does not match location shape 3\n"),
    "wrong-shape-asym": (2, "error: scale shape 2 does not match location shape 3\n"),
    "kron-wrong-shape": (2, "error: scale shape 2 does not match location shape 3\n"),
    "indefinite": (3, "error: matrix is not positive definite: pivot 1 is non-positive\n"),
    "negative-definite": (
        3, "error: matrix is not positive definite: pivot 0 is non-positive\n"
    ),
    "asym": (
        3,
        "error: matricization is not symmetric: max |m - m.T| = 5.000e-01 "
        "exceeds tolerance 1e-10 relative to max |m| = 1.000e+00\n",
    ),
    "asym-factor": (
        3,
        "error: factor 0 is not symmetric: max |m - m.T| = 5.000e-01 "
        "exceeds tolerance 1e-10 relative to max |m| = 1.000e+00\n",
    ),
    "neg-pos": (3, "error: matrix is not positive definite: pivot 0 is non-positive\n"),
    "pos-indefinite": (3, "error: matrix is not positive definite: pivot 2 is non-positive\n"),
    "neg-indefinite": (3, "error: matrix is not positive definite: pivot 2 is non-positive\n"),
    "indefinite-pos": (3, "error: matrix is not positive definite: pivot 1 is non-positive\n"),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale-cases")
    contract._scale_case_inputs(path)
    return path


def test_every_refused_case_is_pinned():
    # "pos" and "neg-neg" are the two accepted scales; their density bytes
    # go through the BLAS and stay with the ledger.
    assert set(REFUSALS) == set(contract.SCALE_CASES) - {"pos", "neg-neg"}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_exit_code_and_stderr(work, case):
    params, point = work / f"case-{case}-params.json", work / f"case-{case}-point.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["density", str(params), str(point), "--log"])
    assert (code, out.getvalue(), err.getvalue()) == (REFUSALS[case][0], "", REFUSALS[case][1])
