"""Comparison baselines: MultiLisp futures, send/receive."""

from repro.baselines.futures import ErrorValue, FutureRuntime, MLFuture
from repro.baselines.sendrecv import DatagramBatch, Mailbox, PairingTable

__all__ = [
    "DatagramBatch",
    "ErrorValue",
    "FutureRuntime",
    "MLFuture",
    "Mailbox",
    "PairingTable",
]
