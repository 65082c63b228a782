"""Set-up probe: import rispilot in a fresh process and run one CLI command
up to its first call into a layer, then print the monotonic clock and the
process's CPU time so far, and exit.

A call into a layer is a call that rispilot.cli makes to a function of
another rispilot module. Scenario builders and the allocator-name lookup
are excluded: they are part of parsing the config.

Usage: python3 perfbench/probe.py <rispilot CLI arguments>
"""
import os
import sys
import time
import types

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import rispilot.cli as cli  # noqa: E402

PARSING_MODULES = ("rispilot.cli", "rispilot.scenario")
PARSING_FUNCTIONS = ("resolve_allocator",)


class Reached(BaseException):
    """Raised at the first call into a layer; BaseException so no handler in cli catches it."""


def _reached(*args, **kwargs):
    raise Reached


def main() -> int:
    for attr, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if (isinstance(obj, types.FunctionType) and module.startswith("rispilot.")
                and module not in PARSING_MODULES and attr not in PARSING_FUNCTIONS):
            setattr(cli, attr, _reached)
    try:
        rc = cli.main(sys.argv[1:])
    except Reached:
        print(repr(time.monotonic()), repr(time.process_time()))
        return 0
    print(f"the command finished (exit {rc}) without calling into a layer", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
