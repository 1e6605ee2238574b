"""Suite-wide check: every closed-form exchangeable model a test builds, at
collection or at run time, reports the (m, sigma2, rho) that the dense
derivation reads from its arrays, bit for bit."""

import numpy as np

from wrongexit.models import MvNormalModel, exchangeable_form

_build = MvNormalModel.exchangeable.__func__


def _checked(cls, mean, sigma2, rho):
    model = _build(cls, mean, sigma2, rho)
    stored = model.exchangeable_parameters()
    dense = exchangeable_form(model.mean, model.cov)
    assert stored is dense is None or (
        np.array(stored).tobytes() == np.array(dense).tobytes()), \
        (stored, dense)
    return model


MvNormalModel.exchangeable = classmethod(_checked)
