import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]


@pytest.fixture(autouse=True, scope="session")
def _stop_children():
    """The pmimd tests start workers and a resource tracker in this
    process; stop and reap them as run.py does."""
    yield
    from pbench.common import stop_children

    stop_children()
