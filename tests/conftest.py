import os
import sys
from contextlib import contextmanager

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


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
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@contextmanager
def count_executions():
    """Count the Ray Data executions (``StreamingExecutor.execute`` calls)
    started inside the block: ``with count_executions() as n: ...`` leaves
    the count in ``n["n"]``."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    counter = {"n": 0}
    execute = StreamingExecutor.execute

    def counting_execute(self, *args, **kwargs):
        counter["n"] += 1
        return execute(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreamingExecutor, "execute", counting_execute)
        yield counter


@contextmanager
def count_tasks():
    """Count the Ray tasks submitted inside the block through remote
    functions (``RemoteFunction._remote``, which ``f.remote`` and
    ``f.options(...).remote`` both call): ``with count_tasks() as n: ...``
    leaves the total in ``n["n"]`` and the count per function name in
    ``n["by_name"]``."""
    from collections import Counter

    from ray.remote_function import RemoteFunction

    counter = {"n": 0, "by_name": Counter()}
    submit = RemoteFunction._remote

    def counting_remote(self, *args, **kwargs):
        counter["n"] += 1
        counter["by_name"][self._function_name.rsplit(".", 1)[-1]] += 1
        return submit(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RemoteFunction, "_remote", counting_remote)
        yield counter


# the ray.data constructors that wrap blocks or files in a Dataset
WRAPS = ("from_arrow_refs", "from_arrow")
READS = ("read_parquet",)


@contextmanager
def count_datasets():
    """Count the Datasets built inside the block through ``ray.data``'s
    block wraps (``from_arrow_refs``, ``from_arrow``) and Parquet reads:
    ``with count_datasets() as n: ...`` leaves ``n["wraps"]`` and
    ``n["read_parquet"]``."""
    import ray.data as rd

    counter = {"wraps": 0, "read_parquet": 0}

    def counting(name: str, key: str):
        original = getattr(rd, name)

        def wrapped(*args, **kwargs):
            counter[key] += 1
            return original(*args, **kwargs)

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in WRAPS:
            mp.setattr(rd, name, counting(name, "wraps"))
        for name in READS:
            mp.setattr(rd, name, counting(name, "read_parquet"))
        yield counter
