import os
import subprocess
import sys

import numpy as np
import pytest

import robinopt
from robinopt import SolverParams, build_disk, build_interval, build_square

# transcendental reference values, frozen from the closed-form solvers
# (mu tan(mu/2) = 1, mu tan(mu) = 1, mu J1 = J0, first J0 zero squared)
LAM_ROBIN_SYM = 1.7070529755509227
LAM_ROBIN_ONESIDED = 0.740173884394967
LAM_DISK_SIGMA1 = 1.576992730808607
LAM_DISK_DIRICHLET = 5.783185962946785
LAM_POINT_INTERVAL = (np.pi / 2.0) ** 2


def run_fresh(code, timeout=None):
    """The standard output of `code` run by a fresh interpreter that imports
    robinopt from the same source tree as these tests; a run longer than
    `timeout` seconds is killed and raises subprocess.TimeoutExpired."""
    src = os.path.dirname(os.path.dirname(robinopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, timeout=timeout).stdout


@pytest.fixture(scope="session")
def interval200():
    return build_interval(200)


@pytest.fixture(scope="session")
def interval400():
    return build_interval(400)


@pytest.fixture(scope="session")
def square8():
    return build_square(0.125)


@pytest.fixture(scope="session")
def square4():
    return build_square(0.25)


@pytest.fixture(scope="session")
def disk_coarse():
    return build_disk(0.25)


@pytest.fixture(scope="session")
def disk10():
    return build_disk(0.1)


@pytest.fixture(scope="session")
def p2():
    return SolverParams(p=2.0)


@pytest.fixture(scope="session")
def p3():
    return SolverParams(p=3.0)
