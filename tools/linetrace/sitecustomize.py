"""Line tracer for every Python process started with this directory on
``PYTHONPATH``: Python imports ``sitecustomize`` at startup, and child
processes that inherit ``PYTHONPATH`` are traced too.

Two environment variables switch it on; without both it does nothing:

* ``LINETRACE_ROOT`` -- only code in files under this directory is recorded;
* ``LINETRACE_OUT`` -- the directory that receives one ``<pid>.json`` per
  process at exit, mapping each file's real path to the sorted line
  numbers that ran in it.

``sys.settrace`` covers the main thread and ``threading.settrace`` the
threads started after it.  ``unhit.py`` reads the files.
"""

import atexit
import json
import os
import sys
import threading

_ROOT = os.environ.get("LINETRACE_ROOT")
_OUT = os.environ.get("LINETRACE_OUT")

if _ROOT and _OUT:
    _root = os.path.join(os.path.realpath(_ROOT), "")
    _lines = {}  # real path -> set of line numbers that ran
    _seen = {}  # co_filename -> its set in _lines, or None outside the root

    def _local(frame, event, arg):
        if event == "line":
            _seen[frame.f_code.co_filename].add(frame.f_lineno)
        return _local

    def _global(frame, event, arg):
        name = frame.f_code.co_filename
        if not isinstance(name, str):  # seen on a weakref callback's frame
            return None
        if name not in _seen:
            real = os.path.realpath(name)
            _seen[name] = _lines.setdefault(real, set()) if real.startswith(_root) else None
        return _local if _seen[name] is not None else None

    def _write():
        sys.settrace(None)
        os.makedirs(_OUT, exist_ok=True)
        with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as f:
            json.dump({path: sorted(lines) for path, lines in _lines.items() if lines}, f)

    atexit.register(_write)
    threading.settrace(_global)
    sys.settrace(_global)
