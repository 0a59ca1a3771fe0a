"""Shared helpers: argument validation."""

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
