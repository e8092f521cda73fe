#!/usr/bin/env python3
"""Run the full cross-validation suite and inspect the report.

The suite checks every pair of independent routes to the same object:
path model vs. operator expansion (under both weight conventions, which
arbitrates the convention), obstruction collapse at roots of unity, the
q-binomial power formula, the infinitesimal coefficients, dynamic
programming vs. enumeration, and the production root-of-unity expansion
vs. the path model reduced at the root.
It also reports, with exact polynomials on both sides, where the
hand-worked four-step reference listing disagrees with the computation.
"""

import json

from qcurvature import verify_suite

report = verify_suite(6)
for line in report.summary_lines():
    print(line)

print("\nMachine-readable form (excerpt):")
data = report.to_json_dict()
print(json.dumps({k: data[k] for k in ("n_max", "selected_rule", "passed")}, indent=2))
print(f"checks recorded: {len(data['checks'])}")
