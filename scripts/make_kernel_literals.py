#!/usr/bin/env python3
"""Print the kernel literals of ``dhtlab.kernel_entries``, correctly rounded.

They are J_n, F_n and E_n for 0 <= n < 32 (J_0 = F_0 = 0) and the E moments
M_0 ... M_8.  Each value is computed with mpmath at 30 and at 40 digits and
rounded to the nearest double; if the two precisions round to different
doubles the script exits 1.  With ``--check`` it prints nothing and exits 1
unless the block it would print appears verbatim in
``src/dhtlab/kernel_entries.py``.

    python scripts/make_kernel_literals.py            # print the block
    python scripts/make_kernel_literals.py --check    # compare with kernel_entries.py

Needs mpmath (the ``test`` extra).  The full run takes a few minutes.
"""

import argparse
import os
import sys
import textwrap

from mpmath import mp

N0 = 32             # literals below |n| = N0, as in dhtlab.kernel_entries
K = 8               # moments M_0 .. M_K
DIGITS = (30, 40)
ENTRIES_PY = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dhtlab",
                          "kernel_entries.py")


def _quad(f):
    return mp.quad(f, [0, 1, 5, 20, 60, mp.inf])


def _cancel_digits(y, order):
    """Guard digits for an inner integral that is ~ y^order times its
    largest term near y = 0."""
    return 10 + max(0, int(order * -mp.log10(y)))


def f_integral(n):
    """integral_0^inf 2 y^3 / ((y^2 + pi^2 n^2) sinh^2 y) dy, the J/F integral."""
    a2 = (mp.pi * n) ** 2
    return _quad(lambda y: 2 * y ** 3 / ((y * y + a2) * mp.sinh(y) ** 2))


def j_value(n):
    return (1 + f_integral(n)) / (mp.pi * n) if n else mp.zero


def f_value(n):
    return f_integral(n) / (mp.pi * n) if n else mp.zero


def _e_inner(y, n):
    """sinh y - Shi(y) for n = 0; otherwise
    integral_0^y t sinh t / (t^2 + pi^2 n^2) dt = (-1)^n Re Shi(y - i pi n)."""
    if n == 0:
        with mp.extradps(_cancel_digits(y, 2)):      # ~ y^3 / 9 against y
            return +(mp.sinh(y) - mp.shi(y))
    with mp.extradps(_cancel_digits(y, 3)):          # ~ y^3 / (3 a^2) against |Shi| ~ 1
        return (-1) ** n * mp.re(mp.shi(mp.mpc(y, -mp.pi * n)))


def e_value(n):
    """E_0 = integral_0^inf 2y csch^3 y (sinh y - Shi(y)) dy; for n != 0,
    E_n = -integral_0^inf 2y csch^3 y integral_0^y t sinh t / (t^2 + pi^2 n^2) dt dy."""
    sign = 1 if n == 0 else -1
    return sign * _quad(lambda y: 2 * y / mp.sinh(y) ** 3 * _e_inner(y, abs(n)))


def _moment_inner(y, k):
    """integral_0^y t^m sinh t dt, m = 2k + 1, by its antiderivative
    sum_j (-1)^j m!/(m-j)! y^(m-j) (cosh y for even j, sinh y for odd j),
    which vanishes at 0 for odd m.  Near 0 it is ~ y^(m+2)/(m+2) against
    terms of m! y."""
    m = 2 * k + 1
    with mp.extradps(_cancel_digits(y, m + 1) + int(mp.log10(mp.factorial(m + 2)))):
        ch, sh = mp.cosh(y), mp.sinh(y)
        return mp.fsum((-1) ** j * mp.ff(m, j) * y ** (m - j) * (sh if j % 2 else ch)
                       for j in range(m + 1))


def e_moment(k):
    """M_k = integral_0^inf 2y csch^3 y integral_0^y t^(2k+1) sinh t dt dy."""
    return _quad(lambda y: 2 * y / mp.sinh(y) ** 3 * _moment_inner(y, k))


def correctly_rounded(fn, *args):
    """The double nearest fn(*args), the same at every precision in DIGITS."""
    rounded = set()
    for dps in DIGITS:
        with mp.workdps(dps):
            rounded.add(float(fn(*args)))
    if len(rounded) != 1:
        raise ArithmeticError(f"{fn.__name__}{args} rounds to {sorted(rounded)} "
                              f"at {DIGITS} digits")
    return rounded.pop()


def _tuple(name, values):
    body = textwrap.fill(", ".join(repr(v) for v in values) + ",", width=79,
                         initial_indent="    ", subsequent_indent="    ")
    return f"{name} = (\n{body}\n)\n"


def literal_block():
    """The literal tables as they appear in dhtlab/kernel_entries.py."""
    ns = range(N0)
    return "".join([
        _tuple("_J_SMALL", [correctly_rounded(j_value, n) for n in ns]),
        _tuple("_F_SMALL", [correctly_rounded(f_value, n) for n in ns]),
        _tuple("_E_SMALL", [correctly_rounded(e_value, n) for n in ns]),
        _tuple("_E_MOMENTS", [correctly_rounded(e_moment, k) for k in range(K + 1)]),
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless kernel_entries.py holds exactly this block")
    args = ap.parse_args(argv)
    try:
        block = literal_block()
    except ArithmeticError as ex:
        print(ex, file=sys.stderr)
        return 1
    if not args.check:
        print(block, end="")
        return 0
    with open(ENTRIES_PY) as fh:
        if block in fh.read():
            return 0
    print("kernel_entries.py does not hold the literal block; regenerate it", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
