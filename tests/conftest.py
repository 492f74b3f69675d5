import pytest

from disperse.validate import validate_suite


@pytest.fixture(scope="session")
def quick_report():
    """One seeded quick validation run, shared by the tests that only read it."""
    return validate_suite(quick=True)
