"""Packed per-Coflow demand state for the replan hot path.

Every replan repacks a Coflow's remaining demand into
consideration order: ``sorted(demand_times.items())`` plus a tuple (or
``_Entry``) per circuit, paid once per plan — the dominant Python-side
cost left after the compiled planner kernel took over the event loop.
But the demand *keys* of an active Coflow never change after admission
(service only decrements values toward zero; completed circuits keep a
zero entry), so the sort is invariant across the Coflow's lifetime.

:class:`PackedDemand` exploits that: a ``dict`` subclass that additionally
maintains the demand as struct-of-arrays columns — ``array('q')`` source
and destination ports in ``(src, dst)`` order plus a parallel
``array('d')`` of remaining times — sorted **once** at construction and
patched in place on every value write.  Consumers (the planner's entry
packing, and the ``repro._native`` kernel through the buffer protocol)
read the columns instead of re-sorting the dict per plan.

The class stays a real dict — iteration order, ``items()``, cache keys,
and every foreign driver that treats ``remaining`` as a plain mapping are
unaffected.  Any mutation the packed columns cannot mirror in place
(adding a key, deleting one, non-integer ports) flips :attr:`packed_ok`
off, and every consumer falls back to the sorted-items path, so
correctness never depends on the invariant holding.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Tuple

__all__ = ["PackedDemand"]


class PackedDemand(dict):
    """``{(src, dst): remaining}`` with sorted packed array columns.

    The columns are valid (:attr:`packed_ok`) while every key is an
    ``(int, int)`` pair that fits ``array('q')`` and no key has been
    added or removed since the last rebuild; value writes to existing
    keys are mirrored into the value column in O(1).
    """

    __slots__ = ("_srcs", "_dsts", "_vals", "_pos", "_packed_ok")

    def __init__(self, items=()) -> None:
        super().__init__(items)
        self._srcs = array("q")
        self._dsts = array("q")
        self._vals = array("d")
        self._pos = {}
        self._packed_ok = False
        self.repack()

    # ------------------------------------------------------------------
    @property
    def packed_ok(self) -> bool:
        """True while the packed columns mirror the dict exactly."""
        return self._packed_ok

    @property
    def columns(self) -> Tuple[array, array, array]:
        """``(srcs, dsts, vals)`` arrays in ``(src, dst)`` order.

        Only meaningful while :attr:`packed_ok`; the native kernel reads
        these through the buffer protocol.
        """
        return self._srcs, self._dsts, self._vals

    def iter_packed(self) -> Iterator[Tuple[int, int, float]]:
        """``(src, dst, remaining)`` triples in ``(src, dst)`` order."""
        return zip(self._srcs, self._dsts, self._vals)

    def repack(self) -> bool:
        """Rebuild the columns from the dict; returns :attr:`packed_ok`."""
        srcs = array("q")
        dsts = array("q")
        vals = array("d")
        pos = {}
        try:
            index = 0
            for key in sorted(self.keys()):
                src, dst = key
                srcs.append(src)
                dsts.append(dst)
                vals.append(self[key])
                pos[key] = index
                index += 1
        except (TypeError, ValueError, OverflowError):
            # Non-pair or non-integer keys (or values the double column
            # refuses): stay a plain dict.
            self._packed_ok = False
            return False
        self._srcs = srcs
        self._dsts = dsts
        self._vals = vals
        self._pos = pos
        self._packed_ok = True
        return True

    # ------------------------------------------------------------------
    # Mutators: patch the columns in place when possible, otherwise
    # invalidate them (the dict itself is always updated first).
    # ------------------------------------------------------------------
    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        index = self._pos.get(key)
        if index is None:
            self._packed_ok = False
            return
        try:
            self._vals[index] = value
        except TypeError:
            self._packed_ok = False

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        self._packed_ok = False

    def pop(self, *args):
        self._packed_ok = False
        return dict.pop(self, *args)

    def popitem(self):
        self._packed_ok = False
        return dict.popitem(self)

    def clear(self) -> None:
        dict.clear(self)
        self._packed_ok = False

    def update(self, *args, **kwargs) -> None:
        dict.update(self, *args, **kwargs)
        self._packed_ok = False

    def setdefault(self, key, default=None):
        if key in self:
            return self[key]
        self._packed_ok = False
        return dict.setdefault(self, key, default)

    def __ior__(self, other):
        self._packed_ok = False
        dict.update(self, other)
        return self
