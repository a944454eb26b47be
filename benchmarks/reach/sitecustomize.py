"""Reach hook: with this directory on ``PYTHONPATH`` and ``REACH_OUT`` set,
each interpreter (spawned workers too) appends ``file:line:qualname`` to
``$REACH_OUT.<pid>`` when its main thread first enters a ``src/repro`` def."""
import os
import sys

if os.environ.get("REACH_OUT"):
    _seen = set()
    _log = open(f"{os.environ['REACH_OUT']}.{os.getpid()}", "a", buffering=1)
    _marker = os.path.join("src", "repro") + os.sep

    def _hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code not in _seen:
            _seen.add(code)
            if _marker in code.co_filename:
                _log.write(f"{os.path.realpath(code.co_filename)}:"
                           f"{code.co_firstlineno}:{code.co_qualname}\n")

    sys.setprofile(_hook)
