"""The frozen correctness reference: configs and their expected plan digests.

``reference.json`` (written by ``freeze.py``) holds every config the
benchmark sends, keyed by :func:`config_key`, with the plan-digest list the
engine produced when the file was frozen, and three ordered key lists: the
warm mix, the churn pool and the cold grid.  A response is correct only
when its digest list equals the frozen one, so an engine change that
drops, adds or alters plans fails the run.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def config_key(workload, params, strategy):
    """Stable name of one (workload, params, strategy) config, e.g. ``ec2:1-3-1:fb``."""
    return f"{workload}:{'-'.join(str(value) for value in params.values())}:{strategy}"


def plan_digests(plans):
    """Sorted short SHA-256 digests of whitespace-normalised plan texts.

    The same rule the service protocol uses for ``plan_digests``, computed
    here from the plans so the library path is checked without the
    service's code.
    """
    texts = sorted(" ".join(str(plan.query).split()) for plan in plans)
    return [hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] for text in texts]


def load(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    for name in ("warm_mix", "churn_pool", "cold_grid"):
        missing = [key for key in reference[name] if key not in reference["configs"]]
        if missing:
            raise ValueError(f"reference {name} names unknown configs {missing}")
    return reference


def verdict(expected, record):
    """Classify one response record: ``ok``, ``refused``, ``failed`` or ``wrong``."""
    if record is None:
        return "failed"
    status = record.get("status")
    if status == "overloaded":
        return "refused"
    if status != "ok":
        return "failed"
    if record.get("timed_out") or record.get("plan_digests") != expected["plan_digests"]:
        return "wrong"
    return "ok"
