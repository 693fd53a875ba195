from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so two runs of the suite on the same code give the same result.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
