"""Frozen empirical constants for regression checks.

Every value here was measured once on the seeded corpora defined in
``fflab.corpora`` and frozen with a small headroom factor.  They are
regression bounds, not sharp constants.  They pin the seed-0 corpora of
LORNOR, DD_CORPUS, SPECTRUM_NORM, OOO_SWEEP and FROSTMAN, and
``tests/test_acceptance.py::test_recorded_pins_reproduce_from_seed_0``
re-derives each one from the seed-0 check records; after changing one of
those corpora, copy the lines that test prints here.  TR_PPLUS checks none
of them, so its corpora change without a re-freeze.
"""

LORNOR_BANDS = {('0.25', '0.5'): 4895.299023, ('0.25', '1.0'): 1.05, ('0.25', '2.0'): 39.67659, ('0.25', 'inf'): 209.09796, ('0.5', '0.5'): 43.858312, ('0.5', '1.0'): 1.05, ('0.5', '2.0'): 4.039378, ('0.5', 'inf'): 7.355068, ('1.0', '0.5'): 4.633375, ('1.0', '1.0'): 1.05, ('1.0', '2.0'): 1.640812, ('1.0', 'inf'): 1.982389, ('2.0', '0.5'): 1.763022, ('2.0', '1.0'): 1.05, ('2.0', '2.0'): 1.229138, ('2.0', 'inf'): 1.517131, ('4.0', '0.5'): 1.254537, ('4.0', '1.0'): 1.05, ('4.0', '2.0'): 1.153033, ('4.0', 'inf'): 1.366968}

DD_CORPUS_MAX = {'l2': 1.701813179, 'sobolev': 1.084411197}

FROSTMAN = {'K': 16.007469}

NORM_GROWTH = {'C': 1.216378}

OOO_REFERENCE = {'r': 0.1, 'p': 4.0, 'value': 0.2043108163112931}

