"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's own evaluation paths: plain
term-by-term mpmath sums with a fixed box radius, the Siegel action both
in mpmath matrix arithmetic and by Gauss-Jordan over Q(i), |det(lam tau + mu)|^2 as the determinant of a
real 2g x 2g form over Q, and linear algebra and LLL over Q in Fractions
(Gaussian elimination, Gauss-Jordan inverse, LDL pivots, LLL with the full
Gram-Schmidt recomputed after every step), the column HNF by Euclid on
the smallest entry of each row, and the accumulator slots of a walked theta
row term by term.

Four references are not independent.  ``per_row_chains`` keeps the former
chain plan of ``theta._chain_plan``, which formed every modulus as the exp
of its exact exponent, over the package's own recurrence (``theta._move``)
and exponents, so that a test can hold the plan's decisions to it.
``beta_sigma_det_scaled`` keeps
the former det-scaled formula of beta_sigma over the package's own theta
values, so that a test can compare the two formulas alone.
``theta_groups_combination`` keeps the former per-class loop of
``theta._theta_groups``, which rebuilt every class index and weight index
per walk, over the package's own weights, so that a test can compare the
cached combination table with it bit for bit.
``theta_route_heights`` keeps the former g = 1 height route (mpmath AGM
periods, ``reduce_g1``, the package's certified theta-nulls, lambda matched
against theta2^4/theta3^4), so that the closed forms of ``heights`` can be
checked against certified theta values.
"""
import itertools
import math
from fractions import Fraction
from math import gcd

from mpmath import mp, mpf, mpc, exp, fabs, matrix, pi, sqrt, workprec

BRUTE_RADIUS = 50


def theta_brute(tau_rows, z=None, m1=None, m2=None, n=BRUTE_RADIUS):
    """Direct lattice sum over the box ||k||_inf <= n, one exp per term."""
    g = len(tau_rows)
    z = [mpc(0)] * g if z is None else [mpc(w) for w in z]
    m1 = [mpf(0)] * g if m1 is None else [mpf(str(x)) for x in m1]
    m2 = [mpf(0)] * g if m2 is None else [mpf(str(x)) for x in m2]
    tau = [[mpc(x) for x in row] for row in tau_rows]
    total = mpc(0)

    def rec(idx, vec):
        nonlocal total
        if idx == g:
            a = [vec[i] + m1[i] for i in range(g)]
            quad = sum(a[i] * tau[i][j] * a[j] for i in range(g) for j in range(g))
            lin = sum(a[i] * (z[i] + m2[i]) for i in range(g))
            total += exp(mpc(0, 1) * pi * quad + 2 * mpc(0, 1) * pi * lin)
            return
        for k in range(-n, n + 1):
            rec(idx + 1, vec + [k])

    rec(0, [])
    return total


def theta_norm_brute(tau_rows, z=None, n=BRUTE_RADIUS):
    """det(Y)^(1/4) exp(-pi y^T Y^-1 y) |theta(tau, z)| via mpmath linalg."""
    g = len(tau_rows)
    z = [mpc(0)] * g if z is None else [mpc(w) for w in z]
    y_mat = matrix([[mpf(mpc(x).imag) for x in row] for row in tau_rows])
    y_vec = matrix([mpf(w.imag) for w in z])
    from mpmath import det as mdet, lu_solve
    dety = mdet(y_mat)
    quad = sum(y_vec[i] * lu_solve(y_mat, y_vec)[i] for i in range(g))
    return dety ** mpf("0.25") * exp(-pi * quad) * fabs(theta_brute(tau_rows, z, n=n))


def beta_sigma_det_scaled(tau, z, r, prec):
    """beta_sigma as -(1/2) log(2^(g/2) sum_e ||theta_e||^2), each coset
    norm det(Y)^(1/4) exp(-pi y^T Y^-1 y) |theta_e(tau, r z)| squared, with
    the package's certified arithmetic and coset theta values."""
    from mpmath import fmul, log
    from thetaheights import theta as th
    from thetaheights.certified import GUARD_BITS, CertifiedReal
    from thetaheights.exactla import fraction_to_mpf
    from thetaheights.siegel import as_mpc
    g = tau.g
    with workprec(prec + GUARD_BITS):
        w = th._at(tau, None if z is None else
                   [fmul(r, as_mpc(x), exact=True) for x in z])
        _, xi, _ = w.tail
        scale = CertifiedReal.rounded(fraction_to_mpf(tau.y_det) ** (mpf(1) / 4))
        if xi:
            scale = scale * CertifiedReal.rounded(-pi * fraction_to_mpf(xi)).exp()
        values = th._complex(*th._theta_batch(tau, w, r, th._coset_chars(g, r), prec,
                                              phase=False))
        norms = [scale * v.abs() for v in values]
        norms2 = [nv * nv for nv in norms]
        total = sum(norms2[1:], norms2[0])
        two_pow = CertifiedReal.rounded(mpf(2) ** (mpf(g) / 2))
        return (two_pow * total).log() * CertifiedReal.exact(mpf(-1) / 2)


def cross_ratios(e1, e2, e3):
    es = (Fraction(e1), Fraction(e2), Fraction(e3))
    out = set()
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out.add((es[i] - es[k]) / (es[j] - es[k]))
    return out


def theta_brute_batch(tau_rows, z, m1, m2s, n=BRUTE_RADIUS):
    """``theta_brute`` for several m2 at one m1 over the box ||k||_inf <= n:
    exp(pi i v^T tau v + 2 pi i v.z) once per lattice point v = k + m1,
    times exp(2 pi i v.m2) for each m2.  Terms are added up by the exact
    value of v.m2 mod 1 first and each such sum is multiplied by its
    exp(2 pi i v.m2) once."""
    g = len(tau_rows)
    z = [mpc(0)] * g if z is None else [mpc(w) for w in z]
    m1 = [Fraction(x) for x in m1]
    m2s = [[Fraction(x) for x in m2] for m2 in m2s]
    d = 1
    for x in itertools.chain(m1, *m2s):
        d = d * x.denominator // gcd(d, x.denominator)
    m2_int = [[int(x * d) for x in m2] for m2 in m2s]
    tau = [[mpc(x) for x in row] for row in tau_rows]
    sums = [{} for _ in m2s]
    for k in itertools.product(range(-n, n + 1), repeat=g):
        v_int = [int((k[i] + m1[i]) * d) for i in range(g)]
        a = [mpf(k[i]) + mpf(m1[i].numerator) / m1[i].denominator for i in range(g)]
        quad = sum(a[i] * tau[i][j] * a[j] for i in range(g) for j in range(g))
        base = exp(mpc(0, 1) * pi * quad + 2 * mpc(0, 1) * pi * sum(a[i] * z[i] for i in range(g)))
        for by_phase, m2 in zip(sums, m2_int):
            num = sum(v_int[i] * m2[i] for i in range(g)) % (d * d)
            by_phase[num] = by_phase.get(num, 0) + base
    return [sum(exp(2 * mpc(0, 1) * pi * num / (d * d)) * part
                for num, part in by_phase.items()) for by_phase in sums]


ACT_PREC = 400


def act_mp(gamma, tau_rows, prec=ACT_PREC):
    """gamma.tau = (alpha tau + beta)(lam tau + mu)^-1 in mpmath matrix
    arithmetic at ``prec`` bits, symmetrized; a list of mpc rows."""
    g = len(tau_rows)
    with workprec(prec):
        t = matrix([[mpc(x) for x in row] for row in tau_rows])
        a, b, l, m = (matrix([[mpf(x) for x in row] for row in block])
                      for block in (gamma.alpha, gamma.beta, gamma.lam, gamma.mu))
        res = (a * t + b) * (l * t + m) ** -1
        return [[(res[i, j] + res[j, i]) / 2 for j in range(g)] for i in range(g)]


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def act_exact(gamma, re_rows, im_rows):
    """Exact gamma.tau over Q(i) for tau with rational parts ``re_rows`` and
    ``im_rows``: Gauss-Jordan inverts lam tau + mu, with each Gaussian
    rational held as a (re, im) pair of Fractions.  Returns (Re, Im) rows."""
    g = len(re_rows)
    tau = [[(Fraction(re_rows[i][j]), Fraction(im_rows[i][j])) for j in range(g)]
           for i in range(g)]

    def affine(a, b):  # a tau + b for integer blocks a, b
        return [[(sum(a[i][k] * tau[k][j][0] for k in range(g)) + b[i][j],
                  sum(a[i][k] * tau[k][j][1] for k in range(g)))
                 for j in range(g)] for i in range(g)]

    num, den = affine(gamma.alpha, gamma.beta), affine(gamma.lam, gamma.mu)
    aug = [den[i] + [(Fraction(int(i == j)), Fraction(0)) for j in range(g)]
           for i in range(g)]
    for k in range(g):
        piv = next(i for i in range(k, g) if aug[i][k] != (0, 0))
        aug[k], aug[piv] = aug[piv], aug[k]
        x, y = aug[k][k]
        n = x * x + y * y
        aug[k] = [_gmul((x / n, -y / n), v) for v in aug[k]]
        for i in range(g):
            if i != k:
                f = aug[i][k]
                aug[i] = [_gsub(v, _gmul(f, w)) for v, w in zip(aug[i], aug[k])]
    out = [[(Fraction(0), Fraction(0))] * g for _ in range(g)]
    for i in range(g):
        for j in range(g):
            for k in range(g):
                t = _gmul(num[i][k], aug[k][g + j])
                out[i][j] = (out[i][j][0] + t[0], out[i][j][1] + t[1])
    return ([[v[0] for v in row] for row in out], [[v[1] for v in row] for row in out])


def real_form(gamma, re_rows, im_rows):
    """[[A, -B], [B, A]] over Q for lam tau + mu = A + iB, tau with rational
    parts ``re_rows`` and ``im_rows``: its determinant is
    |det(lam tau + mu)|^2."""
    g = len(re_rows)

    def prod(a, m):
        return [[sum(Fraction(a[i][k]) * Fraction(m[k][j]) for k in range(g))
                 for j in range(g)] for i in range(g)]

    a = [[v + gamma.mu[i][j] for j, v in enumerate(row)]
         for i, row in enumerate(prod(gamma.lam, re_rows))]
    b = prod(gamma.lam, im_rows)
    return ([ra + [-v for v in rb] for ra, rb in zip(a, b)]
            + [rb + ra for ra, rb in zip(a, b)])


def frac_det(a):
    """Determinant over Q by Gaussian elimination with row exchanges."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return d


def frac_inverse(a):
    """Inverse over Q by Gauss-Jordan on [a | I]."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def ldl_pivots(y):
    """Pivots of the LDL^T decomposition of a symmetric matrix over Q, up to
    and including the first that is not positive."""
    n = len(y)
    m = [[Fraction(x) for x in row] for row in y]
    pivots = []
    for k in range(n):
        p = m[k][k]
        pivots.append(p)
        if p <= 0:
            break
        for i in range(k + 1, n):
            f = m[i][k] / p
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return pivots


def frac_psd(a):
    """Whether a symmetric matrix over Q is positive semidefinite: every
    principal minor is >= 0."""
    n = len(a)
    return all(frac_det([[a[i][j] for j in idx] for i in idx]) >= 0
               for size in range(1, n + 1)
               for idx in itertools.combinations(range(n), size))


def lll_gram_frac(gram, delta=Fraction(99, 100)):
    """LLL over Q on the Gram matrix ``gram``: size-reduce vector k against
    j = k-1, ..., 0, then the Lovasz test, with the Gram-Schmidt data
    recomputed from scratch after every change of the basis.  Returns U
    with the reduced basis in its columns."""
    n = len(gram)
    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]

    def ip(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    def gso():
        star, norms = [], []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = list(basis[i])
            for j in range(i):
                mu[i][j] = ip(basis[i], star[j]) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(ip(v, v))
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = (mu[k][j] + Fraction(1, 2)).__floor__()
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return tuple(tuple(int(basis[j][i]) for j in range(n)) for i in range(n))


def hnf_columns_min_scan(rows):
    """The column-style HNF of ``lattices.hnf_columns`` by Euclid on the
    smallest entry: for each row, move the nonzero entry of least absolute
    value right of the diagonal into the pivot column, subtract quotients of
    it from the later columns, and repeat until one nonzero entry is left
    (Cohen, 2.4).  Raises ``LatticeError`` when the rank is below n."""
    from thetaheights.lattices import InvariantBreach, LatticeError
    n = len(rows)
    m = len(rows[0]) if n else 0
    a = [list(r) for r in rows]

    def addmul_col(j, k, q):
        for r in a:
            r[j] += q * r[k]

    for i in range(n):
        while True:
            nz = [j for j in range(i, m) if a[i][j] != 0]
            if not nz:
                raise LatticeError("matrix does not have full row rank")
            jmin = min(nz, key=lambda j: abs(a[i][j]))
            if jmin != i:
                for r in a:
                    r[i], r[jmin] = r[jmin], r[i]
            done = True
            for j in range(i + 1, m):
                if a[i][j] != 0:
                    addmul_col(j, i, -(a[i][j] // a[i][i]))
                    if a[i][j] != 0:
                        done = False
            if done:
                break
        if a[i][i] < 0:
            for r in a:
                r[i] = -r[i]
        for j in range(i):
            q = a[i][j] // a[i][i]
            if q:
                addmul_col(j, i, -q)
    for i in range(n):
        for j in range(n, m):
            if a[i][j] != 0:
                raise InvariantBreach("nonzero residue column after HNF")
    return [r[:n] for r in a]


def row_slots(base, lo, step, count, spans, den, size, mirror=None):
    """The accumulator index of each term x = lo + step j, j < count, of a
    walked theta row, one term at a time (``theta._frames`` forms them per
    top characteristic): base + x mod den^2 when x lies in the box of its
    own top characteristic (x mod den in ``spans`` and x within its span),
    the trash 2 size otherwise.  A row that also walks the row at -nn
    (``mirror`` = (mbase, mspans), that row's base and spans) holds that
    row's term at -x as well: the term goes to mbase + (-x mod den^2) when
    only -x lies in its box there, and to the pair slot
    size + base + x mod den^2 when both do."""
    r2 = den * den
    trash = 2 * size
    xs = range(lo, lo + step * count, step)
    slots = [base + x % r2 if (span := spans.get(x % den)) and span[0] <= x <= span[1]
             else trash for x in xs]
    if mirror:
        mbase, mspans = mirror
        for j, x in enumerate(xs):
            span = mspans.get(-x % den)
            if span and span[0] <= -x <= span[1]:
                slots[j] = mbase + -x % r2 if slots[j] == trash else slots[j] + size
    return slots


def theta_groups_combination(acc_re, acc_im, g, den, groups, units, pf, phase, unit):
    """{a: [(re, im, units)]} of the class accumulators of one walk for
    groups {a: bs}, as the former per-class loop of ``theta._theta_groups``
    formed them: class C = den*c + a of a enters theta[a/den; b/den] with
    the weight ``unit(2k, den^2, pf)``, k = C.b - a.b mod den^2 (C.b with
    the phase), the sums are exact ints floored to pf bits, and an inexact
    weight adds 3 + floor(97 sum_C (|Re A_C| + |Im A_C|) 2^-pf) to units[a]."""
    classes = list(itertools.product(range(den), repeat=g))
    den2 = den * den
    weights = {}
    sums = {}
    for a, bs in groups.items():
        parts = []
        for c in classes:
            big = tuple(den * x + y for x, y in zip(c, a))
            idx = 0
            for x in big:
                idx = idx * den2 + x
            parts.append((big, acc_re[idx], acc_im[idx]))
        out = []
        for b in bs:
            ab = 0 if phase else sum(x * y for x, y in zip(a, b))
            sr = si = 0
            exact = True
            for big, ar, ai in parts:
                k = (sum(x * y for x, y in zip(big, b)) - ab) % den2
                if k not in weights:
                    weights[k] = unit(2 * k, den2, pf)
                wr, wi, w_exact = weights[k]
                sr += ar * wr - ai * wi
                si += ar * wi + ai * wr
                exact = exact and w_exact
            w_units = 0
            if not exact:
                w_units = 3 + (97 * sum(abs(ar) + abs(ai) for _, ar, ai in parts) >> pf)
            out.append((sr >> pf, si >> pf, units[a] + w_units))
        sums[a] = out
    return sums


def per_row_chains(plan, follow=None):
    """The former chain plan of ``theta._chain_plan``, which bounded the
    error of every chained value row by row in doubles: (chains, inverse,
    refused).  Each value is (im, err), the imaginary part of its exact
    exponent over s_den and its error in ulps of 2^-w, w = pf +
    ``CHAIN_GUARD``; ``theta._move`` carries it with the product rule
    |u| E_c + |c| E_u + E_u E_c 2^-w + 2, a fresh exp errs by
    ``theta._fresh``, and a row chains when its peak term and each ratio it
    walks err by at most 66 2^CHAIN_GUARD ulps.

    With ``follow`` (the chains of a plan) the model takes that plan's
    decisions instead of its own, and ``refused`` lists (line index, j) of
    each row ``follow`` chains that the per-row model does not admit."""
    from thetaheights import theta as th
    s_den = plan.s_den
    tiny = 2.0 ** -(plan.pf + th.CHAIN_GUARD)
    allowed = (68 - 2) * 2.0 ** th.CHAIN_GUARD

    def value(im):
        return im, th._fresh(-math.pi * (im / s_den))

    def times(u, c):
        err = (th._mag(-math.pi * (u[0] / s_den)) * c[1]
               + th._mag(-math.pi * (c[0] / s_den)) * u[1] + u[1] * c[1] * tiny + 2)
        return u[0] + c[0], err if err == err else float("inf")

    def by_identity(u, prod):
        mod = th._mag(-math.pi * (u[0] / s_den))
        err = u[1] / (mod * (mod - u[1] * tiny)) + 2 if mod > u[1] * tiny else float("inf")
        out = -u[0], err if err == err else float("inf")
        if prod is not None:
            out = times(out, prod)
        return out if out[1] <= allowed else None

    bounds, inverse = {}, {}
    nums = set(plan.moves[1])
    for num in nums:
        partner = -num[0], -num[1]
        if partner in nums and num[::-1] > partner[::-1]:
            bounds[num] = by_identity(value(partner[1]), None)
            if bounds[num]:
                inverse[num] = partner
                continue
        bounds[num] = value(num[1])
    consts = {d: [bounds[num] for num in move] for d, move in plan.moves.items()}
    q = bounds[plan.q]

    def anchored(row):
        up, down = (value(num[1]) for num in th._ratios(row, plan))
        inv = 1 if up[0] >= down[0] else -1
        derived = by_identity(down if inv > 0 else up, q)
        if derived is None:
            inv = 0
        elif inv > 0:
            up = derived
        else:
            down = derived
        return (value(row.di - plan.d_min), up, down, None), inv

    chains, refused = [], []
    for index, line in enumerate(plan.lines):
        centre = min(range(len(line)), key=lambda j: line[j].di)
        walked = [row.lo <= row.hi and 4 * (row.di - plan.d_min) <= s_den * (plan.pf + 1)
                  for row in line]
        outs = {}
        if walked[centre] and 0 < centre < len(line) - 1 and walked[centre - 1] \
                and walked[centre + 1]:
            o = {d: value(th._outer(line[centre], line[centre + d])[1]) for d in (1, -1)}
            big = 1 if o[1][0] < o[-1][0] else -1
            derived = by_identity(o[big], consts[1][4])
            if derived:
                outs[-big] = derived
        start, inv = anchored(line[centre]) if walked[centre] else (None, 0)
        out = [(centre, 0, "anchor" if walked[centre] else "skip", 0, inv)]
        told = {(j, d): how for j, d, how, _, _ in follow[index]} if follow else {}
        for d in (1, -1):
            state = start
            for j in range(centre + d, len(line) if d > 0 else -1, d):
                row, prev = line[j], line[j - d]
                how, shift, inv = "anchor", 0, 0
                if not walked[j]:
                    how, state = "skip", None
                elif state is not None:
                    if state[3] is None:
                        inv = int(j - d == centre and d in outs)
                        o = outs[d] if inv else value(th._outer(prev, row)[1])
                        state = state[:3] + (o,)
                    shift = (row.x - prev.x) // plan.step
                    cand = th._move(state, consts[d], shift, times)
                    (_, et), (_, ep), (_, em), _ = cand
                    admitted = (et <= allowed and (row.k == row.hi or ep <= allowed)
                                and (row.k == row.lo or em <= allowed))
                    if follow and told[j, d] == "chain":
                        if not admitted:
                            refused.append((index, j))
                        admitted = True
                    elif follow:
                        admitted = False
                    if admitted:
                        how, state = "chain", cand
                if how == "anchor":
                    state, inv = anchored(row)
                    shift = 0
                out.append((j, d, how, shift, inv))
        chains.append(out)
    return chains, inverse, refused


def _even_nulls(tau, prec):
    """theta constants theta2 = (1/2,0), theta3 = (0,0), theta4 = (0,1/2),
    from the one walk of the level-2 theta-null vector."""
    from thetaheights.theta import theta_null_vector
    t3, t4, t2, _ = theta_null_vector(tau, 2, prec)
    return t2, t3, t4


def _match_lambda(curve, t2, t3, prec):
    """The one cross-ratio of the 2-torsion roots that matches
    theta2^4/theta3^4 within the certified errors and a slack of
    2^-(prec // 2)."""
    from thetaheights.exactla import fraction_to_mpf
    lhs = t2.value ** 4
    base = t3.value ** 4
    budget = mpf(2) ** -(prec // 2) + 8 * (t2.err + t3.err) * (1 + fabs(lhs) + fabs(base))
    matches = [c for c in cross_ratios(*curve.two_torsion_x)
               if fabs(lhs - fraction_to_mpf(c) * base) <= budget * fabs(base)]
    assert len(matches) == 1, matches
    return matches[0]


def theta_route_heights(curve, prec):
    """The g = 1 heights from theta values, as a dict: the reduced tau and
    log det Im of it (``reduce_g1`` of the mpmath-AGM period ratio), lam,
    h_theta from the three even theta-nulls there, h_F with the radius
    (1 + |v|) 2^-(prec + 16) that route asserted for mpmath's AGM, the
    window, and the residue of Jacobi's theta2^4 + theta4^4 = theta3^4."""
    from mpmath import agm, log
    from thetaheights.certified import GUARD_BITS, CertifiedReal
    from thetaheights.exactla import fraction_to_mpf
    from thetaheights.siegel import SiegelPoint, reduce_g1
    e1, e2, e3 = curve.sorted_roots()
    half = CertifiedReal.exact(mpf(1) / 2)
    with workprec(prec + GUARD_BITS):
        a, b, c = (sqrt(fraction_to_mpf(x)) for x in (e1 - e3, e1 - e2, e2 - e3))
        omega1 = 6 * pi / agm(a, b)
        omega2 = 6 * pi / agm(a, c)
        red = reduce_g1(SiegelPoint.from_complex(mpc(0, omega2 / omega1)), prec)
        t2, t3, t4 = _even_nulls(red.reduced, prec)
        lam = _match_lambda(curve, t2, t3, prec)
        a3 = t3.abs()
        r2, r4 = t2.abs() / a3, t4.abs() / a3
        arch = (CertifiedReal.exact(1) + r4 * r4 + r2 * r2).log() * half
        h_theta = CertifiedReal.rounded(log(lam.denominator) / 4) + arch
        v = -log(omega1 * omega2 / pi) / 2
        h_f = CertifiedReal(v, (1 + fabs(v)) * mpf(2) ** (-(prec + 16)))
        log_det_im = log(red.reduced.det_im())
        window = (h_theta - h_f * half - CertifiedReal.rounded(log_det_im / 4))
        jacobi = fabs(t2.value ** 4 + t4.value ** 4 - t3.value ** 4)
    return {"tau_reduced": red.reduced, "log_det_im": log_det_im, "lam": lam,
            "h_theta": h_theta, "h_faltings": h_f, "window": window,
            "jacobi_defect": jacobi}
