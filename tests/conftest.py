"""Shared test settings.

A hypothesis failure prints the blob that replays it
(``@reproduce_failure``), so a failure seen only in a CI log can be rebuilt
from that log.
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
