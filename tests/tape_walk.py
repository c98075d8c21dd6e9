"""What an autodiff graph keeps alive, found by following its references.

The walk starts at a tensor and follows every strong reference
(``gc.get_referents``), with two exceptions: of a function it follows only
the closure cells, so module globals and code objects are not counted, and
it never enters a module or a class.  A graph node's weak reference to its
tensor is not a strong reference, so a tensor the caller dropped is not
reached through the graph.  Views count as the buffer they view.
"""

import gc
import types
from collections import Counter

import numpy as np


def walk(root):
    """``(held, closures)`` of everything reachable from ``root``.

    ``held`` maps the id of each base buffer reached to ``(buffer, owner)``,
    where ``owner`` is the ``__qualname__`` of the closure it was first
    reached through (``""`` for the root's own data), and ``closures`` counts
    the closures walked by ``__qualname__``: a tape op's backward is
    ``"<op>.<locals>.bwd"``.
    """
    held, closures, seen = {}, Counter(), set()
    stack = [(root, "")]
    while stack:
        obj, owner = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            held.setdefault(id(obj), (obj, owner))
        elif isinstance(obj, types.FunctionType):
            closures[obj.__qualname__] += 1
            stack.extend((cell.cell_contents, obj.__qualname__) for cell in obj.__closure__ or ())
        else:
            stack.extend((ref, owner) for ref in gc.get_referents(obj))
    return held, closures


def retained_buffers(root) -> list:
    """The ndarrays the graph behind ``root`` keeps alive, once per base buffer, the root's own data included."""
    return [buffer for buffer, _ in walk(root)[0].values()]
