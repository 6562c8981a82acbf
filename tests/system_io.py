"""The writer of the system file format, for test fixtures: the package
reads the format (polysys.parse_system_json) and never writes it."""

import json

import numpy as np

from certitrack.polysys import homogeneous_exponents


def system_to_json(system) -> str:
    """Serialize a PolySystem in the text input format (non-zero terms only)."""
    terms = []
    for d, vec in zip(system.degrees, system.coeffs):
        exps = homogeneous_exponents(system.n_vars, d)
        eq = []
        for pos in np.nonzero(vec)[0]:
            c = vec[pos]
            eq.append(
                {
                    "exponents": [int(e) for e in exps[pos]],
                    "re": float(c.real),
                    "im": float(c.imag),
                }
            )
        terms.append(eq)
    return json.dumps({"degrees": list(system.degrees), "terms": terms})
