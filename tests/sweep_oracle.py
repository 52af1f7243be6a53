"""Scheduler-free reference for the records a sweep stores, kept as a test oracle.

For each point of a :class:`~repro.experiments.sweeps.SweepSpec` it decodes
batch *i* with ``run_surgery_ler(config, policy, batch_shots,
SeedSequence(*batch_entropy(seed, key, i)))`` strictly in index order and
stops as soon as the sweep's stopping rule (``_converged``) fires.  It
shares no dispatch, apply or commit code with ``_SweepRun``, which makes it
an independent reference for the scheduler parity tests: whatever the
worker count or executor, the stored record of a point must equal what this
plain loop computes.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import PolicyNotApplicableError, make_policy
from repro.experiments.ler import prepared_pipeline, run_surgery_ler
from repro.experiments.sweeps import (
    SweepPoint,
    SweepSpec,
    _converged,
    _fresh_record,
    record_parity_view,
)
from repro.store import batch_entropy


def oracle_record(spec: SweepSpec, pt: SweepPoint) -> dict:
    """Parity view of the record a sweep over ``spec`` stores for ``pt``."""
    key = pt.key(seed=spec.seed, batch_shots=spec.batch_shots)
    policy = make_policy(pt.policy_name, **dict(pt.policy_kwargs))
    try:
        pipe = prepared_pipeline(pt.config, policy)
    except PolicyNotApplicableError as exc:
        record = _fresh_record(spec, pt, key, nobs=0)
        record.update(
            status="not_applicable",
            converged=True,
            stop_reason="not_applicable",
            detail=str(exc),
        )
        return record_parity_view(record)
    record = _fresh_record(spec, pt, key, pipe.dem.num_observables)
    record["plan_summary"] = pipe.plan_summary()
    while True:
        done, reason = _converged(record["failures"], record["shots"], spec)
        if done:
            break
        entropy, spawn_key = batch_entropy(spec.seed, key, record["batches"])
        result = run_surgery_ler(
            pt.config,
            policy,
            spec.batch_shots,
            np.random.SeedSequence(entropy, spawn_key=spawn_key),
            decoder=pt.decoder,
        )
        record["failures"] = [
            a + e.successes for a, e in zip(record["failures"], result.estimates)
        ]
        record["shots"] += spec.batch_shots
        record["batches"] += 1
    record.update(converged=True, stop_reason=reason)
    return record_parity_view(record)


def oracle_records(spec: SweepSpec) -> dict:
    """``{point key: parity view}`` for every point of ``spec``."""
    return {
        pt.key(seed=spec.seed, batch_shots=spec.batch_shots): oracle_record(spec, pt)
        for pt in spec.points()
    }
