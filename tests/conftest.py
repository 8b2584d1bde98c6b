import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def build_paths(monkeypatch):
    """Returns a generator function over build_index's two grouping paths,
    ("local", "shuffle"): a test runs its body once per step.  Test journals
    fit in one run, so "local" is the default path; during the "shuffle"
    step the local path's doc gate (LOCAL_BUILD_MAX_DOCS) is 0."""
    from marginalia_ray.index import build

    def paths():
        for grouping in ("local", "shuffle"):
            with monkeypatch.context() as m:
                if grouping == "shuffle":
                    m.setattr(build, "LOCAL_BUILD_MAX_DOCS", 0)
                yield grouping

    return paths
