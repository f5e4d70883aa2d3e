import pytest

from airl import augment


@pytest.fixture(autouse=True)
def cold_plan_memo():
    """Each test starts with an empty `augment.draw_plans` memo, so what one
    test drew never turns another test's draws into hits."""
    augment.memo_plans.cache_clear()
    yield
    augment.memo_plans.cache_clear()
