"""Shared test configuration: one hypothesis profile for every property
test, reproducible across runs and writing no example database."""

from hypothesis import settings

settings.register_profile("survix", deadline=None, derandomize=True, database=None)
settings.load_profile("survix")
