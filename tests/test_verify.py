from ncmink import QuadratureConfig
from ncmink.verify import verify_gram


def _rows(seed):
    report = verify_gram(QuadratureConfig(seed=seed), families=2, elements=2)
    # the omega rows carry a seed-dependent error budget as their tolerance
    return [(check["computed"], check["tolerance"]) for check in report["checks"]]


def test_verify_gram_draws_from_the_config_seed():
    first = _rows(11)
    assert first == _rows(11)
    assert first != _rows(12)


def test_verify_gram_reports_its_margins():
    report = verify_gram(QuadratureConfig(), families=2, elements=2)
    n_row, m_row, re_row = report["checks"][:3]
    # passing rows report how far they cleared zero
    assert n_row["computed"] > 0.0 and n_row["passed"]
    assert m_row["computed"] > 0.0 and m_row["passed"]
    assert re_row["computed"] > 0.0 and re_row["passed"]
