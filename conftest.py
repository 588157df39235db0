import sys

import pytest

from repro.spark_session import describe, get_spark


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session."""
    s = get_spark()
    # one line on stderr: driver memory, where it came from, parallelism
    print(f"[conftest] {describe(s)}", file=sys.stderr)
    yield s
    s.stop()
