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
