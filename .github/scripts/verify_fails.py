"""Check which checks a `fluidsym verify` run failed.

Usage: python verify_fails.py STATUS OUTPUT EXPECTED...

STATUS is verify's exit status and OUTPUT the file holding its stdout.  A
FAIL line reads "FAIL <name>" or "FAIL <name>: <detail>".  Exits 0 when
verify exited 1 and the FAIL lines name exactly the EXPECTED checks, each
once; otherwise prints every check that failed unexpectedly or did not
fail, and exits 1.
"""

import sys

status, path, expected = int(sys.argv[1]), sys.argv[2], sorted(sys.argv[3:])
with open(path) as f:
    failed = sorted(line[len("FAIL "):].split(": ", 1)[0]
                    for line in f.read().splitlines() if line.startswith("FAIL "))
print(f"exit status {status}, {len(failed)} FAIL lines")
for name in sorted(set(failed) ^ set(expected)):
    state = "failed unexpectedly" if name in failed else "did not fail"
    print(f"{name}: {state}")
sys.exit(0 if status == 1 and failed == expected else 1)
