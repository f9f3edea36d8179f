"""Run the finite-difference gradient suites and print the report.

Every differentiable piece of the library is compared against central
differences; relu kinks and ties of a max are excluded rather than failed.
"""

import time

from tfilm.checks import run_gradchecks

for module in ("layers", "tfilm", "model"):
    t0 = time.time()
    passed, results = run_gradchecks(module)
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        print(f"{name:<24} {status}  max rel err {report.max_rel_error:.3e}")
    print(f"[{module}] {'ok' if passed else 'FAILED'} "
          f"in {time.time() - t0:.1f}s\n")
