"""Settings shared by every test module."""
from hypothesis import settings

# Property tests draw the same examples on every run and carry no time limit
# per example, so a slow machine cannot make them flaky.
settings.register_profile("necktree", derandomize=True, deadline=None, database=None)
settings.load_profile("necktree")
