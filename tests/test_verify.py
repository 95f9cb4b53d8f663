from ncmink.integrate import QuadratureConfig
from ncmink.verify import verify_gram


def _rows(seed):
    report = verify_gram(QuadratureConfig(seed=seed), families=2, elements=2)
    # the omega rows carry a seed-dependent error budget as their tolerance
    return [(check["computed"], check["tolerance"]) for check in report["checks"]]


def test_verify_gram_draws_from_the_config_seed():
    first = _rows(11)
    assert first == _rows(11)
    assert first != _rows(12)
