"""Scalar Python step kernel — the numba jit source and reference.

:func:`newton_step` is a line-for-line transliteration of the C kernel
in :mod:`repro.spice.backends._cc` (same argument list, same loop
structure, same scalar math), written in nopython-compatible Python.
The ``compiled`` backend jits it with ``numba.njit`` where numba is
installed; the *unjitted* function doubles as an executable reference
the test suite runs on tiny problems to pin the C kernel's semantics
without needing numba.

Argument conventions match the C entry point: arrays are C-contiguous
float64/int64, ``v`` is modified in place on the rows listed in
``active``, ``v_prev`` is the previous accepted state the step constant
``C/dt v_prev`` is formed from, ``isrc`` holds the step's current-source
terms (``iw`` rows: 0 = none, 1 = shared, batch = per sample),
``alive``/``counts`` are caller-provided scratch, and the return value
is 0 on success, -1 when ``max_iter`` was exhausted with unconverged
samples, -2 when a sample stayed singular after the regularisation
bump.
"""

from __future__ import annotations

import numpy as np


def newton_step(v, v_prev, active, na, Cdt_u, isrc, iw, carg, cw, M,
                negA_u, A_uu, u_idx, fs_idx, fs_coef, js_idx, js_coef,
                js_w, dev_c, scal, n, nu, nd, max_iter, work, alive,
                counts):
    inv_phit = scal[0]
    exp_clip = scal[1]
    vtol = scal[2]
    max_step = scal[3]
    reg = scal[4]
    nb0 = na

    vt = np.empty((n, nb0))
    arg = np.empty((4 * nd, nb0))
    e = np.empty((3 * nd, nb0))
    sp = np.empty((3 * nd, nb0))
    lg = np.empty((3 * nd, nb0))
    th = np.empty((nd, nb0))
    idv = np.empty((nd, nb0))
    st = np.empty((3 * nd, nb0))
    rhs = np.empty((nb0, nu))
    jac = np.empty((nb0, nu * nu))
    sc = np.empty((nb0, nu))
    a = np.empty(nu * nu)
    b = np.empty(nu)

    # step constant C/dt v_prev (+ source currents) per active sample;
    # alive holds positions into active
    for i in range(na):
        s = active[i]
        for k in range(nu):
            acc = 0.0
            for j in range(n):
                c = Cdt_u[k, j]
                if c == 0.0:
                    continue
                acc += c * v_prev[s, j]
            sc[i, k] = acc
        if iw > 0:
            row = 0 if iw == 1 else s
            for k in range(nu):
                sc[i, k] += isrc[row, k]
        alive[i] = i
    nb = na
    depth = 0
    sample_iters = 0
    singular = 0

    while nb > 0 and depth < max_iter:
        depth += 1
        sample_iters += nb
        # gather the active rows of v, batch-last
        for i in range(nb):
            s = active[alive[i]]
            for j in range(n):
                vt[j, i] = v[s, j]
        # arg = M @ vt (+ carg on the first 3nd rows)
        for r in range(4 * nd):
            for i in range(nb):
                arg[r, i] = 0.0
            for j in range(n):
                c = M[r, j]
                if c == 0.0:
                    continue
                for i in range(nb):
                    arg[r, i] += c * vt[j, i]
        if cw == 1:
            for r in range(3 * nd):
                c = carg[r, 0]
                for i in range(nb):
                    arg[r, i] += c
        else:
            for r in range(3 * nd):
                for i in range(nb):
                    arg[r, i] += carg[r, active[alive[i]]]
        # numerically-stable softplus + logistic
        for r in range(3 * nd):
            for i in range(nb):
                xi = arg[r, i]
                ei = np.exp(-abs(xi))
                e[r, i] = ei
                spv = np.log1p(ei)
                if xi > 0.0:
                    spv += xi
                sp[r, i] = spv
                den = 1.0 + ei
                lg[r, i] = 1.0 / den if xi >= 0.0 else ei / den
        # clipped tanh on the CLM row
        for j in range(nd):
            for i in range(nb):
                t = arg[3 * nd + j, i]
                if t > exp_clip:
                    t = exp_clip
                if t < -exp_clip:
                    t = -exp_clip
                th[j, i] = np.tanh(t)
        # EKV core + degradation + CLM: currents and stamps
        for j in range(nd):
            tp = dev_c[0, j]
            tnp = dev_c[1, j]
            inj = dev_c[2, j]
            lj = dev_c[3, j]
            l2p = dev_c[4, j]
            for i in range(nb):
                spf = sp[j, i]
                spr = sp[nd + j, i]
                ff = spf * spf
                fr = spr * spr
                core = ff - fr
                degr = 1.0 + tnp * sp[2 * nd + j, i]
                t = th[j, i]
                xt = arg[3 * nd + j, i]
                clm = 1.0 + l2p * xt * t
                dclm = lj * (t + xt * (1.0 - t * t))
                idv[j, i] = core * clm / degr
                dff = spf * lg[j, i]
                dfr = spr * lg[nd + j, i]
                pre = clm / degr * inv_phit
                q = core * tp * lg[2 * nd + j, i] / degr
                cd = core * dclm / degr
                st[j, i] = ((dff - dfr) * inj - q) * pre
                st[nd + j, i] = dfr * pre + cd
                st[2 * nd + j, i] = dff * pre + cd
        # rhs = step_const + negA_u @ v + device-current scatter
        for i in range(nb):
            p = alive[i]
            for k in range(nu):
                rhs[i, k] = sc[p, k]
        for k in range(nu):
            for j in range(n):
                c = negA_u[k, j]
                if c == 0.0:
                    continue
                for i in range(nb):
                    rhs[i, k] += c * vt[j, i]
        for j in range(nd):
            for t_ in range(2):
                c = fs_coef[j, t_]
                if c == 0.0:
                    continue
                k = fs_idx[j, t_]
                for i in range(nb):
                    rhs[i, k] += c * idv[j, i]
        # jac = A_uu + stamp scatter
        for i in range(nb):
            for r in range(nu):
                for k in range(nu):
                    jac[i, r * nu + k] = A_uu[r, k]
        for r in range(3 * nd):
            for t_ in range(js_w):
                c = js_coef[r, t_]
                if c == 0.0:
                    continue
                k = js_idx[r, t_]
                for i in range(nb):
                    jac[i, k] += c * st[r, i]
        # per-sample partial-pivot LU solve + damped update + masking
        keep = 0
        for i in range(nb):
            bumped = False
            while True:
                for k in range(nu * nu):
                    a[k] = jac[i, k]
                for k in range(nu):
                    b[k] = rhs[i, k]
                if bumped:
                    for k in range(nu):
                        a[k * nu + k] += reg
                fail = False
                for k in range(nu):
                    p = k
                    best = abs(a[k * nu + k])
                    for r2 in range(k + 1, nu):
                        m = abs(a[r2 * nu + k])
                        if m > best:
                            best = m
                            p = r2
                    if best == 0.0:
                        fail = True
                        break
                    if p != k:
                        for c2 in range(nu):
                            tmp = a[k * nu + c2]
                            a[k * nu + c2] = a[p * nu + c2]
                            a[p * nu + c2] = tmp
                        tb = b[k]
                        b[k] = b[p]
                        b[p] = tb
                    inv = 1.0 / a[k * nu + k]
                    for r2 in range(k + 1, nu):
                        f = a[r2 * nu + k] * inv
                        if f == 0.0:
                            continue
                        a[r2 * nu + k] = 0.0
                        for c2 in range(k + 1, nu):
                            a[r2 * nu + c2] -= f * a[k * nu + c2]
                        b[r2] -= f * b[k]
                if not fail:
                    break
                if bumped:
                    counts[0] = depth
                    counts[1] = sample_iters
                    counts[2] = singular
                    return -2
                singular += 1
                bumped = True
            for k in range(nu - 1, -1, -1):
                x = b[k]
                for c2 in range(k + 1, nu):
                    x -= a[k * nu + c2] * b[c2]
                b[k] = x / a[k * nu + k]
            maxstep = 0.0
            s = active[alive[i]]
            for k in range(nu):
                d = b[k]
                if d > max_step:
                    d = max_step
                if d < -max_step:
                    d = -max_step
                v[s, u_idx[k]] += d
                m = abs(d)
                if m > maxstep:
                    maxstep = m
            if maxstep >= vtol:
                alive[keep] = alive[i]
                keep += 1
        nb = keep
    counts[0] = depth
    counts[1] = sample_iters
    counts[2] = singular
    return -1 if nb > 0 else 0
