"""Freeze the benchmark's correctness reference from the current engine.

Run from the repository root::

    python3 perfbench/freeze.py            # writes perfbench/reference.json

It optimizes every config of the EC1–EC3 grid once, single-shot, with a
budget, and keeps the configs that finish untimed-out under
``COLD_LIMIT_S``: those form the cold grid.  The ones under
``CHURN_LIMIT_S``, minus the warm mix, thinned evenly by cost to
``CHURN_POOL_SIZE``, form the churn pool.  Before writing, it checks every kept plan set by execution:
the original query and every plan are evaluated on a small seeded instance
and must return the same bag of rows.  A plan set that fails this check
aborts the freeze, so the file never records an unsound answer.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from reference import REFERENCE_PATH, config_key, plan_digests  # noqa: E402

from repro.chase.optimizer import CBOptimizer  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.executor import execute  # noqa: E402
from repro.workloads import build_ec1, build_ec2, build_ec3  # noqa: E402
from repro.workloads import datagen  # noqa: E402

BUILDERS = {"ec1": build_ec1, "ec2": build_ec2, "ec3": build_ec3}
STRATEGIES = ("fb", "oqf", "ocs")
#: Single-shot budget while classifying; a config must finish well inside it.
BUDGET_S = 4.0
#: Configs slower than this single-shot stay out of the cold grid.
COLD_LIMIT_S = 1.0
#: Configs slower than this single-shot stay out of the churn pool: first
#: contacts should stall warm traffic for a bounded time, not seconds.
CHURN_LIMIT_S = 0.1
#: Churn pool size.  A run sends about 18 first contacts, one drawn from
#: each cost stratum of the pool; a pool of twice that leaves two configs per
#: stratum, so seeds differ mostly in timing, not in the work they send.
CHURN_POOL_SIZE = 36
#: Instance used for the execution check: rows per relation, data seed.
EXEC_SIZE = 40
EXEC_SEED = 11
#: The seven-config EC1–EC3 mix the serving benchmarks use.
WARM_MIX = [
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "fb"),
    ("ec1", {"relations": 3, "secondary_indexes": 0}, "ocs"),
    ("ec2", {"stars": 1, "corners": 3, "views": 1}, "fb"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "oqf"),
    ("ec2", {"stars": 2, "corners": 2, "views": 1}, "oqf"),
    ("ec3", {"classes": 3, "asrs": 0}, "fb"),
    ("ec3", {"classes": 3, "asrs": 1}, "ocs"),
]


def grid():
    """Every (workload, params) of the EC1–EC3 grid, in a fixed order."""
    for relations in range(2, 7):
        for secondary in range(0, 3):
            yield "ec1", {"relations": relations, "secondary_indexes": secondary}
    for stars in range(1, 4):
        for corners in range(2, 6):
            for views in range(1, corners):
                yield "ec2", {"stars": stars, "corners": corners, "views": views}
    for classes in range(2, 7):
        for asrs in range(0, (classes - 1) // 2 + 1):
            yield "ec3", {"classes": classes, "asrs": asrs}


#: Join selectivity of the check instances.  The generators' defaults (2–5%)
#: leave the EC1 and EC2 queries empty at ``EXEC_SIZE`` rows, which would
#: make the comparison vacuous.
EXEC_JOIN = 0.95


def database_for(name, params, workload):
    """A small instance on which the config's query returns rows."""
    if name == "ec1":
        database = Database(workload.catalog)
        relations = [f"R{position}" for position in range(1, params["relations"] + 1)]
        datagen.populate_ec1(
            database, relations, size=EXEC_SIZE, seed=EXEC_SEED, match_fraction=EXEC_JOIN
        )
        database.materialize_physical(workload.catalog)
        return database
    if name == "ec2":
        saved = datagen.HUB_JOIN_SELECTIVITY, datagen.CORNER_JOIN_SELECTIVITY
        datagen.HUB_JOIN_SELECTIVITY = datagen.CORNER_JOIN_SELECTIVITY = EXEC_JOIN
        try:
            return workload.database(size=EXEC_SIZE, seed=EXEC_SEED)
        finally:
            datagen.HUB_JOIN_SELECTIVITY, datagen.CORNER_JOIN_SELECTIVITY = saved
    return workload.database(size=EXEC_SIZE, seed=EXEC_SEED)


def canonical_bag(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def freeze_one(name, params, strategy):
    workload = BUILDERS[name](**params)
    start = time.perf_counter()
    result = CBOptimizer(workload.catalog, timeout=BUDGET_S).optimize(workload.query, strategy)
    elapsed = time.perf_counter() - start
    return workload, result, elapsed


def exec_check(name, params, workload, result):
    """Rows of the original query; raises when any plan's bag differs."""
    database = database_for(name, params, workload)
    expected = canonical_bag(execute(workload.query, database))
    for plan in result.plans:
        if canonical_bag(execute(plan.query, database)) != expected:
            raise SystemExit(f"unsound plan for {name} {params}: {plan.query}")
    return len(expected)


def thin(ordered, size):
    """``size`` evenly spaced members of ``ordered`` (all when it is shorter)."""
    if len(ordered) <= size:
        return list(ordered)
    return [ordered[(index * len(ordered)) // size] for index in range(size)]


def main():
    configs, cold, warm = {}, [], []
    warm_keys = {config_key(*entry) for entry in WARM_MIX}
    candidates = [(name, params, strategy) for name, params in grid() for strategy in STRATEGIES]
    for name, params, strategy in WARM_MIX + candidates:
        key = config_key(name, params, strategy)
        if key in configs:
            continue
        workload, result, elapsed = freeze_one(name, params, strategy)
        is_warm = key in warm_keys
        if result.timed_out or (elapsed > COLD_LIMIT_S and not is_warm):
            print(f"skip {key}: {elapsed:.3f} s, timed out={result.timed_out}", file=sys.stderr)
            continue
        rows = exec_check(name, params, workload, result)
        if rows == 0:
            raise SystemExit(f"{key}: the check instance returns no rows")
        configs[key] = {
            "workload": name,
            "params": params,
            "strategy": strategy,
            "plan_digests": plan_digests(result.plans),
            "plan_count": result.plan_count,
            "single_shot_s": round(elapsed, 4),
            "exec_rows": rows,
        }
        (warm if is_warm else cold).append(key)
        print(f"{key}: {result.plan_count} plans, {elapsed:.3f} s, {rows} rows", file=sys.stderr)
    cold_grid = [key for key in configs if configs[key]["single_shot_s"] <= COLD_LIMIT_S]
    churn_pool = thin(
        sorted(
            (key for key in cold if configs[key]["single_shot_s"] <= CHURN_LIMIT_S),
            key=lambda key: configs[key]["single_shot_s"],
        ),
        CHURN_POOL_SIZE,
    )
    reference = {
        "about": "Plan digests frozen from the engine; every plan set was checked "
        "by executing the original query and each plan on a seeded instance "
        "and comparing the bags of rows.",
        "exec_check": {"size": EXEC_SIZE, "seed": EXEC_SEED, "join_selectivity": EXEC_JOIN},
        "cold_limit_s": COLD_LIMIT_S,
        "churn_limit_s": CHURN_LIMIT_S,
        "churn_pool_size": CHURN_POOL_SIZE,
        "warm_mix": warm,
        "churn_pool": churn_pool,
        "cold_grid": cold_grid,
        "configs": configs,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(
        f"froze {len(configs)} configs: warm mix {len(warm)}, churn pool {len(churn_pool)}, "
        f"cold grid {len(cold_grid)}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
