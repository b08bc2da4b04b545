import dataclasses
import os
import threading
from pathlib import Path

import pytest
from hypothesis.internal import charmap

import nellab
from nellab.collector import Collector, CollectorConfig
from nellab.server import make_server

# Child processes started by the tests import the same nellab as the tests,
# also when only pytest's ``pythonpath`` setting puts it on the path.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(nellab.__file__).parents[1]), os.environ.get("PYTHONPATH"))))


def pytest_collection_finish(session):
    # Hypothesis builds its table of UTF-8-encodable characters once per
    # checkout (several seconds without a .hypothesis/ cache). Build it
    # before any test runs, so the time does not land in the first text draw
    # of some test and trip its health check. (During pytest_configure,
    # Hypothesis warns about storage access from plugin initialization.)
    charmap.intervals_from_codec("utf-8")

# A 200 KB JSON value, under the 1 MiB body cap, nested deeper than the JSON
# decoder follows on any supported Python (3.13's C scanner stops at 10,000).
DEEP_JSON = "[" * 100_000 + "]" * 100_000
# About the deepest value a header under the 16 KiB cap can hold: too deep to
# decode up to 3.12, while 3.13 decodes it and refuses its shape instead.
DEEP_HEADER = "[" * 8000 + "]" * 8000

# The canonical example report; several suites assert against it verbatim.
FIG1_REPORT = {
    "age": 0,
    "type": "network-error",
    "url": "https://www.example.com/",
    "body": {
        "sampling_fraction": 0.5,
        "referrer": "http://example.com/",
        "server_ip": "2001:DB8:0:0:0:0:0:42",
        "protocol": "h2",
        "method": "GET",
        "request_headers": {},
        "response_headers": {},
        "status_code": 200,
        "elapsed_time": 823,
        "phase": "application",
        "type": "http.protocol.error",
    },
}


@pytest.fixture
def fig1_report() -> dict:
    import copy

    return copy.deepcopy(FIG1_REPORT)


@pytest.fixture
def http_collector():
    """Factory starting a real collector HTTP server on an ephemeral port."""
    servers = []

    def start(config: CollectorConfig, sink=None) -> tuple[Collector, str]:
        collector = Collector(dataclasses.replace(config, listen="127.0.0.1:0"), sink)
        server = make_server(collector)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        servers.append(server)
        host, port = server.server_address[:2]
        return collector, f"http://{host}:{port}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
