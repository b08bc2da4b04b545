"""Network Error Logging lab.

A NEL client state machine (header codec, policy cache, report engine), a
minimizing report collector, a deterministic scenario simulator, and a
header-audit CLI.
"""

__version__ = "0.1.0"
