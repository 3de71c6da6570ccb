import numpy as np
import pytest

from forking import children_left
from viapkit import attacks, render, train


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind.

    Rendering, training and the sweep fork helper processes; each must kill
    and reap them on return, error or interrupt.
    """
    yield
    if children_left():
        pytest.fail("the test left a child process behind")


@pytest.fixture(scope="session")
def default_dataset():
    return render.generate_dataset(seed=7)


@pytest.fixture(scope="session")
def victim_run(default_dataset):
    ds = default_dataset
    tr = ds.indices("train")
    te = ds.indices("test")
    return train.train(
        train.init_params(0),
        ds.images[tr], ds.labels[tr],
        train.TrainConfig(),
        val=(ds.images[te], ds.labels[te]),
    )


@pytest.fixture(scope="session")
def victim(victim_run):
    return victim_run[0]


@pytest.fixture(scope="session")
def tiny_dataset():
    # 4 classes x 1 object x 4 views: enough structure for sweep plumbing
    # tests without paying for the full dataset.
    return render.generate_dataset(
        objects_per_class=1, views_per_object=4, seed=3
    )


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Record every sign-step kernel call as (kernel, config, images, labels).

    Each call must pass images 2nd and the config 4th positionally, which is
    where the benchmark's tracer (perfbench/tracing.py) reads them.
    """
    calls = []

    def recorder(kernel):
        real = getattr(attacks, kernel)

        def record(*args, **kwargs):
            assert len(args) >= 4, kernel
            _, images, labels, config = args[:4]
            assert isinstance(images, np.ndarray), kernel
            assert isinstance(config, attacks.AttackConfig), kernel
            calls.append((kernel, config, images.copy(), np.asarray(labels).copy()))
            return real(*args, **kwargs)
        return record

    for kernel in ("bim_batch", "viap_arrays"):
        monkeypatch.setattr(attacks, kernel, recorder(kernel))
    return calls
