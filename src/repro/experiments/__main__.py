"""Run one experiment and write its ``results/*.txt`` tables.

Usage: python -m repro.experiments <name>   (e1 … e7, t2)
"""
import argparse
import sys
import time

from ..spark_session import describe, get_spark
from . import EXPERIMENTS, NUMPY_ONLY, run


def main() -> None:
    ap = argparse.ArgumentParser(prog="python -m repro.experiments")
    ap.add_argument("name", choices=list(EXPERIMENTS))
    name = ap.parse_args().name

    spark = None
    if name not in NUMPY_ONLY:
        spark = get_spark(f"repro-{name}")
        print(f"[{name}] {describe(spark)}", file=sys.stderr)
    t0 = time.perf_counter()
    try:
        run(name, spark)
    finally:
        if spark is not None:
            spark.stop()
    print(f"[{name}] wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
