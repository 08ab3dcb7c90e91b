"""Every option a surface offers has a reason to exist (static, no I/O).

An option earns its place in one of three ways: a shipped caller (``src/``,
the ledger or the CLI) sets a non-default value, it is a deployment setting
(address, path, resource bound, durability policy, timeout, retry policy),
or it switches a feature or a paper comparison on or off.  A value only a
test sets is a module constant the test lowers instead.

The tables below give each defaulted parameter of the audited surfaces, and
each ``repro serve`` flag, its one-line reason.  A new option fails here
until someone adds its line; a removed one fails until its line goes.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.__main__ import main
from repro.client import Client
from repro.obs.introspect import ColumnIntrospection
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeries
from repro.persist.store import PersistentStore
from repro.server.protocol import encode_result_frames
from repro.server.server import ReproServer
from repro.server.session import ClientSession
from repro.sql import Database
from repro.sql.plan_cache import PlanCache
from repro.sql.planner import CrackerProvider
from repro.volcano.vectorized import VecScan

SHIPPED, DEPLOYMENT, FEATURE = "shipped caller", "deployment setting", "feature switch"

SURFACES = [
    Database, ReproServer, ClientSession, encode_result_frames,
    Client, TimeSeries, ColumnIntrospection, MetricsRegistry, VecScan,
    PersistentStore, CrackerProvider, PlanCache,
]

#: ``surface.parameter`` -> (kind, reason), for every defaulted parameter.
PARAMETERS = {
    "Database.cracking": (FEATURE, "cracking vs plain scans, the paper's comparison"),
    "Database.mode": (SHIPPED, "the ledger passes mode='vector', the only value left"),
    "Database.concurrent": (SHIPPED, "the ledger passes it; no effect; item 1(f)"),
    "Database.plan_cache": (FEATURE, "the statement cache on or off (--no-plan-cache)"),
    "Database.crack_threshold": (SHIPPED, "engines open with 0; --crack-threshold"),
    "Database.persist_dir": (DEPLOYMENT, "store directory (--persist-dir)"),
    "Database.wal_fsync_every": (DEPLOYMENT, "durability policy (--wal-fsync-every)"),
    "Database.checkpoint_statements": (DEPLOYMENT, "checkpoint policy; ledger mixed_dml"),
    "Database.checkpoint_wal_bytes": (DEPLOYMENT, "checkpoint policy (--checkpoint-wal-bytes)"),
    "Database.trace": (FEATURE, "span-trace every statement; the ledger's traced pass"),
    "Database.slow_query_ms": (FEATURE, "the slow-query log on, at this threshold"),
    "Database.profile": (FEATURE, "per-column workload profiler (--profile)"),
    "ReproServer.host": (DEPLOYMENT, "bind address (--host)"),
    "ReproServer.port": (DEPLOYMENT, "bind port (--port)"),
    "ReproServer.max_connections": (DEPLOYMENT, "resource bound (--max-connections)"),
    "ReproServer.statement_timeout": (DEPLOYMENT, "timeout (--statement-timeout)"),
    "encode_result_frames.compression": (
        SHIPPED, "the ledger's codec replay passes None, the only value; item 1(f)"
    ),
    "Client.reconnect": (SHIPPED, "the ledger's client passes reconnect=False"),
    "Client.max_retries": (DEPLOYMENT, "retry policy"),
    "Client.retry_delay": (DEPLOYMENT, "retry policy"),
    "ColumnIntrospection.domain_low": (SHIPPED, "CrackerProvider passes the column's span"),
    "ColumnIntrospection.domain_high": (SHIPPED, "CrackerProvider passes the column's span"),
    "VecScan.alias": (SHIPPED, "the planner passes the table binding"),
    "VecScan.needed": (SHIPPED, "the planner passes the columns a query reads"),
    "PersistentStore.fsync_every": (SHIPPED, "Database passes wal_fsync_every"),
    "PersistentStore.checkpoint_statements": (SHIPPED, "Database passes its policy"),
    "PersistentStore.checkpoint_wal_bytes": (SHIPPED, "Database passes its policy"),
    "CrackerProvider.crack_threshold": (SHIPPED, "Database passes its threshold"),
    "CrackerProvider.profile": (SHIPPED, "Database passes profile"),
    "PlanCache.enabled": (SHIPPED, "Database passes plan_cache"),
}

#: ``repro serve`` flag -> (kind, reason).
SERVE_FLAGS = {
    "--help": (FEATURE, "argparse's usage text"),
    "--host": (DEPLOYMENT, "bind address"),
    "--port": (DEPLOYMENT, "bind port"),
    "--no-cracking": (FEATURE, "cracking vs plain scans"),
    "--no-plan-cache": (FEATURE, "the statement cache off"),
    "--crack-threshold": (FEATURE, "sort-below-T cut-off; 0 is the paper's prototype"),
    "--persist-dir": (DEPLOYMENT, "store directory"),
    "--wal-fsync-every": (DEPLOYMENT, "durability policy"),
    "--checkpoint-statements": (SHIPPED, "the ledger's mixed_dml server passes it"),
    "--checkpoint-wal-bytes": (DEPLOYMENT, "checkpoint policy"),
    "--max-connections": (DEPLOYMENT, "resource bound"),
    "--pool-size": (SHIPPED, "the ledger's server passes --pool-size 1, the only value"),
    "--statement-timeout": (DEPLOYMENT, "timeout"),
    "--init": (DEPLOYMENT, "SQL to run before accepting clients"),
    "--profile": (FEATURE, "per-column workload profiler"),
}


def _defaulted(surface) -> list[str]:
    return [
        f"{surface.__name__}.{parameter.name}"
        for parameter in inspect.signature(surface).parameters.values()
        if parameter.default is not inspect.Parameter.empty
    ]


def test_every_defaulted_parameter_has_a_reason():
    found = [name for surface in SURFACES for name in _defaulted(surface)]
    assert sorted(found) == sorted(PARAMETERS), (
        "options without a line here, or lines without an option: "
        f"{sorted(set(found) ^ set(PARAMETERS))}"
    )


def test_every_serve_flag_has_a_reason(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == set(SERVE_FLAGS), sorted(flags ^ set(SERVE_FLAGS))


@pytest.mark.parametrize("table", [PARAMETERS, SERVE_FLAGS], ids=["parameters", "flags"])
def test_every_reason_is_one_of_the_three(table):
    for name, (kind, reason) in table.items():
        assert kind in (SHIPPED, DEPLOYMENT, FEATURE), name
        assert reason.strip() and "\n" not in reason, name
