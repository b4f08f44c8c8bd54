"""Settings shared by every test module: one hypothesis profile, registered
and loaded here once, so that no module's import order sets another's
defaults.  A test's own ``@settings`` overrides it field by field."""

from hypothesis import settings

settings.register_profile("exactwkb", max_examples=60, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("exactwkb")
