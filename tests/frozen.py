"""Every frozen reference of the tests, and the preset chain they describe.

Each float was computed once with 50-digit arithmetic. ``tools/references.py``
regenerates each from the formula given there; ``tests/test_references.py``
requires one formula per float and each float within 1 ulp of it. The three
``verify`` constants stay in the package, which checks them at run time.
"""

from chainrate.config import default_chain_config
from chainrate.verify import BB84_ASYMPTOTIC_THRESHOLD, EPSILON_FAIL_1E36, EPSILON_PA_1E36  # noqa: F401

#: Five stations, six identical 3% depolarizing links, two honest at each end.
PRESET = default_chain_config().spec
QX_PRESET = 0.0835139975355
P_STAR_PRESET = 0.057353595
P_STAR_1_1 = 0.02955

DELTA_7E5_1E7 = 0.015421659498065237
DELTA_7E6_1E8 = 0.0048767564924374642
DPRIME_7E5 = 0.0077268645705535322
DPRIME_7E6 = 0.0024434491214607973
SMOOTHING_1E36 = 2.5198420997897463e-12

H_011 = 0.499915958164528
CORRECTED_NAMED = 0.02954930532023043
ASYM_NAMED = 0.39344569140754502
ASYM_PRESET = 0.39342837627405659
RATE_1E8 = 0.23572388310027629
RATE_1E8_STRICT = 0.1995135468784338
BB84F_1E8 = 0.056959817377984221
ASYM_THRESHOLD_H2 = 0.1305738063853126
ASYM_THRESHOLD_H4 = 0.16914282726438404
