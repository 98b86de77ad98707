"""Picos Manager: submission handling, work-fetch arbitration, retirement."""

from repro.manager.manager import ManagerError, PicosManager
from repro.manager.submission import SubmissionStream
from repro.manager.workfetch import WorkFetchUnit

__all__ = [
    "ManagerError",
    "PicosManager",
    "SubmissionStream",
    "WorkFetchUnit",
]
