"""The record walk of serialize.to_document: the non-finite guard names its
field, and fields kept out of the JSON take no part in it."""

import math

import pytest

from minmax_lab.errors import NonFiniteRiskError
from minmax_lab.exclusivity import LadderPoint, RefutationCertificate, Verdict
from minmax_lab.losses import Power
from minmax_lab.minimax import AffineMeanFamily, solve_minimax
from minmax_lab.model import GaussianLocationModel, Interval
from minmax_lab.risk import WorstCaseResult, worst_case_risk
from minmax_lab.serialize import to_document, to_json

M1 = GaussianLocationModel(n=1)
THETA3 = Interval(-3, 3)
FAMILY = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=Interval(-1, 1))


def certificate(**changes) -> RefutationCertificate:
    point = LadderPoint(alpha=0.01, delta_Rp=5e-4, delta_Rq=-2e-3)
    values = dict(p=2.0, q=4.0, delta_star_params=(0.9, 0.0), gradient_q=(0.648,),
                  gradient_p_norm=1e-9, direction=(-1.0,), alpha=0.01, delta_Rq=-2e-3,
                  delta_Rp=5e-4, taylor_slope_p=2.0, verdict=Verdict.REFUTED,
                  ladder=(point, point))
    values.update(changes)
    return RefutationCertificate(**values)


def test_a_finite_certificate_is_written():
    document = to_document(certificate())
    assert document["ladder"][1] == {"alpha": 0.01, "delta_Rp": 5e-4, "delta_Rq": -2e-3}
    assert document["verdict"] == "Refuted"


def test_nan_in_a_ladder_point_names_its_field():
    ladder = (LadderPoint(0.01, 5e-4, -2e-3), LadderPoint(0.005, math.nan, -1e-3))
    with pytest.raises(NonFiniteRiskError, match=r"^delta_Rp is not finite \(nan\)$"):
        to_document(certificate(ladder=ladder))


def test_inf_inside_gradient_q_names_its_field():
    with pytest.raises(NonFiniteRiskError, match=r"^gradient_q is not finite \(inf\)$"):
        to_document(certificate(gradient_q=(math.inf,)))


def test_slopes_take_no_part_in_equality_or_json():
    plain = WorstCaseResult(1.5, 3.0, "endpoints")
    passed = WorstCaseResult(1.5, 3.0, "endpoints", slopes=(-1.0, math.nan),
                             curvatures=(math.inf, 4.0))
    assert passed == plain and hash(passed) == hash(plain)
    # not walked, so not even a non-finite slope reaches the guard
    assert to_json(to_document(passed)) == to_json(to_document(plain))
    assert list(to_document(plain)) == ["sup_value", "argmax_theta", "sup_method",
                                        "constant_in_theta"]


def test_a_solves_record_is_its_worst_case():
    # an affine solve's worst case is its last slope pass, slopes included
    result = solve_minimax(M1, FAMILY, Power(4), THETA3)
    again = worst_case_risk(M1, FAMILY.make(result.best_params), Power(4), THETA3)
    assert result.worst_case.slopes is not None and again.slopes is None
    assert result.worst_case == again
    assert to_json(to_document(result.worst_case)) == to_json(to_document(again))
