"""Tests for repro.utils (validation helpers)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.utils import validation


class TestValidation:
    def test_check_positive_accepts_positive(self):
        validation.check_positive("x", 3.5)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_check_positive_rejects_non_positive(self, value):
        with pytest.raises(ConfigurationError):
            validation.check_positive("x", value)

    def test_check_positive_rejects_bool_and_strings(self):
        with pytest.raises(ConfigurationError):
            validation.check_positive("x", True)
        with pytest.raises(ConfigurationError):
            validation.check_positive("x", "3")

    def test_check_non_negative(self):
        validation.check_non_negative("x", 0)
        with pytest.raises(ConfigurationError):
            validation.check_non_negative("x", -1e-9)

    def test_check_positive_int(self):
        validation.check_positive_int("n", 576)
        with pytest.raises(ConfigurationError):
            validation.check_positive_int("n", 0)
        with pytest.raises(ConfigurationError):
            validation.check_positive_int("n", 2.5)
        with pytest.raises(ConfigurationError):
            validation.check_positive_int("n", True)

    def test_check_in_range(self):
        validation.check_in_range("x", 0.5, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            validation.check_in_range("x", 1.5, 0.0, 1.0)

    def test_check_probability(self):
        validation.check_probability("p", 1.0)
        with pytest.raises(ConfigurationError):
            validation.check_probability("p", -0.1)
