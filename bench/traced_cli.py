"""Run ``python -m bhhpm ARGS`` under cProfile and keep its exit code.

    python3 bench/traced_cli.py PROFILE_PATH ARGS...

``python -m cProfile`` swallows the program's exit status, which the
benchmark checks, so the module is run through runpy here instead.
"""

import cProfile
import runpy
import sys

out, sys.argv = sys.argv[1], ["bhhpm", *sys.argv[2:]]
profile = cProfile.Profile()
code = 0
try:
    profile.runcall(runpy.run_module, "bhhpm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    profile.dump_stats(out)
sys.exit(code)
