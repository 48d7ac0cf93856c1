"""Brute-force oracle: the reference the tests hold ``solve`` to.

``brute_force_solve`` enumerates every discrete assignment outright
(vectorized, in blocks) and fills the continuous loads per combination. It
shares no search code with ``solve``: it uses only the model's
``plan_key``/``to_plan`` bookkeeping and the prepared data's ``steps`` and
``cont``, so a fault in the search cannot hide in both. Ties are broken as
``solve`` breaks them, by the model's plan key. It lives in the test tree
because only tests call it; the package itself needs no numpy.
"""

from __future__ import annotations

import time

import numpy as np

from loadshed.optimizer import ModelInstance, ShedPlan, _tie_tol

_BLOCK = 1 << 16
MAX_BRUTE_COMBOS = 1 << 24
MAX_BRUTE_CONTINUOUS = 4


class InstanceTooLargeError(Exception):
    """The instance exceeds what brute-force enumeration will attempt."""


def brute_force_solve(instance: ModelInstance) -> ShedPlan:
    """Exhaustively enumerate all discrete assignments (vectorized in blocks).

    Continuous loads are filled per combination in weight-density order,
    which is exact because each load belongs to at most one zone. Raises
    :class:`InstanceTooLargeError` beyond 2**24 combinations or more than
    4 continuous loads.
    """
    t0 = time.perf_counter()
    prep = instance.model.prepared(instance.caps, instance.zone_limits_w)
    model = prep.model
    if len(prep.cont) > MAX_BRUTE_CONTINUOUS:
        raise InstanceTooLargeError(f"{len(prep.cont)} continuous loads exceed the oracle limit")
    cards = [len(step[4]) for step in prep.steps]
    total = 1
    for c in cards:
        total *= c
        if total > MAX_BRUTE_COMBOS:
            raise InstanceTooLargeError(f"more than {MAX_BRUTE_COMBOS} discrete combinations")

    budget = instance.capacity_budget_w
    n_zones = len(prep.zone_limits)
    choice_arrays = [np.asarray(step[4][::-1], dtype=np.float64) for step in prep.steps]
    strides = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]

    best_statuses = [0.0] * model.n
    best_key = model.zero_key

    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        m = idx.size
        disc = [choice_arrays[k][(idx // strides[k]) % cards[k]] for k in range(len(cards))]
        power = np.zeros(m)
        obj = np.zeros(m)
        zone_used = [np.zeros(m) for _ in range(n_zones)]
        for k, (_, weight, rated, zi, _, _) in enumerate(prep.steps):
            p = disc[k] * rated
            power += p
            obj += disc[k] * weight
            if zi >= 0:
                zone_used[zi] += p
        feasible = power <= budget
        for zi in range(n_zones):
            feasible &= zone_used[zi] <= prep.zone_limits[zi]
        rem = np.maximum(budget - power, 0.0)
        zrem = [np.maximum(prep.zone_limits[zi] - zone_used[zi], 0.0) for zi in range(n_zones)]
        cont_status = []
        for i, zi, rated, cap_power in prep.cont:
            room = rem if zi < 0 else np.minimum(rem, zrem[zi])
            take = np.minimum(cap_power, room)
            rem = rem - take
            if zi >= 0:
                zrem[zi] = zrem[zi] - take
            obj += take * model.density[i]
            cont_status.append(take / rated)
        obj = np.where(feasible, obj, -np.inf)
        block_max = float(obj.max())
        ref = max(block_max, best_key[0])
        candidates = np.nonzero(obj >= ref - _tie_tol(ref))[0]
        for row in candidates:
            statuses = [0.0] * model.n
            for k, step in enumerate(prep.steps):
                statuses[step[0]] = float(disc[k][row])
            for k, item in enumerate(prep.cont):
                statuses[item[0]] = float(cont_status[k][row])
            key = model.plan_key(statuses)
            if key > best_key:
                best_key = key
                best_statuses = statuses

    return model.to_plan(best_statuses, best_key, time.perf_counter() - t0, True)
