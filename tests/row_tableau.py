"""The row-form stabilizer tableau (Aaronson & Gottesman, PRA 70, 052328,
2004): the independent reference that the column-major
``kernels.TableauEngine`` is checked against.

Rows 0..n-1 are destabilizers, n..2n-1 stabilizers; row i packs its X and Z
components into the ints xs[i] and zs[i] (qubit q at bit q) and its sign
into rs[i].  Every gate loops over the 2n rows, a random measurement takes
one phase-summed rowsum per anticommuting row, and a deterministic outcome
is the sign of a product of stabilizers, phase-summed row by row.
"""

from qgqec._bits import popcount

OP_H, OP_X, OP_Z, OP_CNOT, OP_CZ = 0, 1, 2, 3, 4


class RowTableau:
    __slots__ = ("n", "mask", "xs", "zs", "rs")

    def __init__(self, n: int):
        self.n = n
        self.mask = (1 << n) - 1
        self.xs = [1 << i for i in range(n)] + [0] * n
        self.zs = [0] * n + [1 << i for i in range(n)]
        self.rs = [0] * (2 * n)

    def copy(self) -> "RowTableau":
        t = RowTableau.__new__(RowTableau)
        t.n, t.mask = self.n, self.mask
        t.xs, t.zs, t.rs = self.xs[:], self.zs[:], self.rs[:]
        return t

    # -- gates ----------------------------------------------------------

    def apply(self, ops) -> None:
        for code, a, b in ops:
            if code == OP_H:
                self._h(a)
            elif code == OP_X:
                self._x(a)
            elif code == OP_Z:
                self._z(a)
            elif code == OP_CNOT:
                self._cnot(a, b)
            elif code == OP_CZ:
                self._h(b)
                self._cnot(a, b)
                self._h(b)
            else:
                raise ValueError(f"unknown opcode {code}")

    def _h(self, q: int) -> None:
        bit = 1 << q
        xs, zs, rs = self.xs, self.zs, self.rs
        for i in range(2 * self.n):
            xq = xs[i] & bit
            zq = zs[i] & bit
            if xq and zq:
                rs[i] ^= 1
            if bool(xq) != bool(zq):
                xs[i] ^= bit
                zs[i] ^= bit

    def _x(self, q: int) -> None:
        bit = 1 << q
        for i in range(2 * self.n):
            if self.zs[i] & bit:
                self.rs[i] ^= 1

    def _z(self, q: int) -> None:
        bit = 1 << q
        for i in range(2 * self.n):
            if self.xs[i] & bit:
                self.rs[i] ^= 1

    def _cnot(self, c: int, t: int) -> None:
        bc, bt = 1 << c, 1 << t
        xs, zs, rs = self.xs, self.zs, self.rs
        for i in range(2 * self.n):
            xc = xs[i] & bc
            zt = zs[i] & bt
            if xc and zt and (bool(xs[i] & bt) == bool(zs[i] & bc)):
                rs[i] ^= 1
            if xc:
                xs[i] ^= bt
            if zt:
                zs[i] ^= bc

    # -- rowsum phase ----------------------------------------------------

    def _phase_sum(self, x1: int, z1: int, r1: int, x2: int, z2: int, r2: int) -> int:
        """(2 r2 + 2 r1 + sum g) mod 4 for product row1 . row2."""
        full = self.mask
        y1 = x1 & z1
        xonly = x1 & ~z1
        zonly = ~x1 & z1 & full
        pos = (
            popcount(y1 & z2 & ~x2 & full)
            + popcount(xonly & x2 & z2)
            + popcount(zonly & x2 & ~z2 & full)
        )
        neg = (
            popcount(y1 & x2 & ~z2 & full)
            + popcount(xonly & z2 & ~x2 & full)
            + popcount(zonly & x2 & z2)
        )
        return (2 * r1 + 2 * r2 + pos - neg) % 4

    def _rowsum(self, h: int, i: int) -> None:
        # destabilizer targets may hit an odd (imaginary) sum; the sign of a
        # destabilizer is never outcome-visible, so s >> 1 is a fixed
        # don't-care rule (the affine sampler's columns depend on it)
        s = self._phase_sum(self.xs[i], self.zs[i], self.rs[i], self.xs[h], self.zs[h], self.rs[h])
        self.rs[h] = s >> 1
        self.xs[h] ^= self.xs[i]
        self.zs[h] ^= self.zs[i]

    # -- measurement -----------------------------------------------------

    def is_random(self, q: int) -> bool:
        bit = 1 << q
        xs = self.xs
        for i in range(self.n, 2 * self.n):
            if xs[i] & bit:
                return True
        return False

    def project(self, q: int, outcome: int) -> int:
        """Collapse a random Z measurement of qubit q to the given outcome and
        return the X mask of the replaced stabilizer."""
        n, bit = self.n, 1 << q
        xs, zs, rs = self.xs, self.zs, self.rs
        p = next(i for i in range(n, 2 * n) if xs[i] & bit)
        for i in range(2 * n):
            if i != p and (xs[i] & bit):
                self._rowsum(i, p)
        xs[p - n], zs[p - n], rs[p - n] = xs[p], zs[p], rs[p]
        xs[p] = 0
        zs[p] = bit
        rs[p] = outcome
        return xs[p - n]

    def deterministic_outcome(self, q: int) -> int:
        bit = 1 << q
        sx = sz = sr = 0
        for i in range(self.n):
            if self.xs[i] & bit:
                j = i + self.n
                s = self._phase_sum(self.xs[j], self.zs[j], self.rs[j], sx, sz, sr)
                sr = s >> 1
                sx ^= self.xs[j]
                sz ^= self.zs[j]
        return sr

    def measure_all(self, bits) -> int:
        """Measure qubits 0..n-1 in order, each random one taking
        ``bits.next_bit()``; bit q of the result is qubit q."""
        out = 0
        for q in range(self.n):
            if self.is_random(q):
                b = bits.next_bit()
                self.project(q, b)
            else:
                b = self.deterministic_outcome(q)
            out |= b << q
        return out
