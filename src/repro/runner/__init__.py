"""Unified campaign runner: declarative sweeps over the scenario harness.

:func:`~repro.experiments.scenario.run_scenario` is the single *low-level*
entry point of the reproduction — one config, one run, live result.
:meth:`Campaign.run` is the single *high-level* one: a declarative cartesian
grid of scenarios, executed serially or on a process pool, with an optional
content-addressed on-disk cache so repeated campaigns only pay for missing
cells.

Typical use::

    from repro.runner import Campaign, Sweep

    campaign = Campaign(
        name="my-sweep",
        build=my_module.build_config,          # module-level: params -> ScenarioConfig
        sweeps=(Sweep("pacemaker", ("lumiere", "lp22")), Sweep("seed", range(3))),
        fixed={"n": 7, "duration": 600.0},
    )
    result = campaign.run(backend="process", cache=".repro-cache")
    for record in result:
        print(record.run_id, record.summary.eventual_latency)

The same grid can execute on the *live* protocol stack (asyncio runtime,
in-memory transport, deterministic virtual clock) with
``campaign.run(backend="live")``; see :mod:`repro.runner.live` for the
live scenario API (``run_live_scenario``, ``TcpCluster``).
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.campaign import Campaign, RunSpec, Sweep, config_fingerprint, spec_key
from repro.runner.executor import BACKENDS, CampaignResult, execute_cell, run_campaign
from repro.runner.record import RunRecord
from repro.runner.workload import (
    ClosedLoopLoad,
    OpenLoopLoad,
    RequestGateway,
    WorkloadConfig,
    attach_workload,
)

#: Names resolved lazily from repro.runner.live (PEP 562): the live module
#: pulls the whole asyncio runtime stack, which simulated campaigns never
#: need — importing the package root must stay as cheap as it was.
_LIVE_EXPORTS = frozenset(
    {
        "LiveExecutor",
        "LiveRunResult",
        "TcpCluster",
        "build_live_scenario",
        "make_live_cluster",
        "run_live_scenario",
        "run_live_scenario_async",
    }
)

#: Likewise for the multi-process cluster (it additionally pulls
#: multiprocessing machinery nothing else needs).
_PROCESS_EXPORTS = frozenset({"ProcessCluster", "ShardReport"})


def __getattr__(name: str):
    if name in _LIVE_EXPORTS or name in _PROCESS_EXPORTS:
        import importlib

        module = "live" if name in _LIVE_EXPORTS else "process_cluster"
        value = getattr(importlib.import_module(f"repro.runner.{module}"), name)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BACKENDS",
    "Campaign",
    "CampaignResult",
    "ClosedLoopLoad",
    "DEFAULT_CACHE_DIR",
    "LiveExecutor",
    "LiveRunResult",
    "OpenLoopLoad",
    "ProcessCluster",
    "RequestGateway",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "ShardReport",
    "Sweep",
    "TcpCluster",
    "WorkloadConfig",
    "attach_workload",
    "build_live_scenario",
    "config_fingerprint",
    "execute_cell",
    "make_live_cluster",
    "run_campaign",
    "run_live_scenario",
    "run_live_scenario_async",
    "spec_key",
]
