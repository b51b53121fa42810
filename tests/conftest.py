import sys

import pytest

# set before the package is first imported: a test run leaves no bytecode
# under src/, so a later fresh import compiles the source as a checkout does
sys.dont_write_bytecode = True

from hilbhasse.field import FieldCtx  # noqa: E402
from test_acceptance import make_sweep  # noqa: E402


@pytest.fixture(scope="session")
def F2():
    return FieldCtx(2)


@pytest.fixture(scope="session")
def F3():
    return FieldCtx(3)


@pytest.fixture(scope="session")
def F4():
    return FieldCtx(2, 2)


@pytest.fixture(scope="session")
def zip_reports():
    """Memoized full equivalence sweeps, keyed by (p, k, n).

    Returns a dict mapping (omega lines, conj lines) to the ZipReport, so
    several criteria can share one exhaustive enumeration.
    """
    return make_sweep()
