import pytest

from airl import augment, runner


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with empty `augment.draw_plans` and
    `runner.dataset_from_config` memos, so what one test drew or
    synthesized never turns another test's requests into hits."""
    augment.memo_plans.cache_clear()
    runner.memo_dataset.cache_clear()
    yield
    augment.memo_plans.cache_clear()
    runner.memo_dataset.cache_clear()
