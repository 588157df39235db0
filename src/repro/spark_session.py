"""The one SparkSession builder, shared by the test/benchmark ``spark``
fixture (root ``conftest.py``) and ``python -m repro.experiments``.

Master and driver memory are JVM launch options, so they go into
``PYSPARK_SUBMIT_ARGS`` before the first session starts the JVM;
everything honoured after launch is set on the builder.
"""
from __future__ import annotations

import os
from pathlib import Path

from pyspark.sql import SparkSession

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def driver_memory() -> tuple[str, str]:
    """``(value, source)`` for the driver JVM heap: ~75% of the
    container's memory limit.

    Precedence: ``SPARK_DRIVER_MEM`` (explicit override) > cgroup v2/v1
    limit > 48g fallback. The cgroup read is best-effort: under gVisor
    the sysfs emulation may not pass the host limit through. An
    unbounded value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a
    missing limit) is treated as absent so the JVM is never handed an
    impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env"
    for p in _CGROUP_LIMITS:
        try:
            raw = Path(p).read_text().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
        except (OSError, ValueError):
            continue
    return "48g", "fallback"


def get_spark(app: str = "repro") -> SparkSession:
    """A local-mode SparkSession (``SPARK_MASTER`` overrides the master).

    Broadcast joins are disabled so the paper's join queries exercise
    the shuffle path at SF~=0.1; a reproduction that wants a broadcast
    join sets the threshold back for that query.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()[0]} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def describe(spark: SparkSession) -> str:
    """One line saying whether the cgroup derivation saw the real
    limit, and what the session runs on."""
    mem, src = driver_memory()
    sc = spark.sparkContext
    return (
        f"SPARK_DRIVER_MEM={mem} (src={src}) master={sc.master} "
        f"defaultParallelism={sc.defaultParallelism}"
    )
