"""The numpy water-filling kernel and the C kernel's scalar spec.

The engine runs the compiled C kernel whenever it loads and the numpy
solve (:func:`repro.des.kernels.maxmin_class_solve_np`) otherwise; the
two are bit-identical at any slack. :func:`force_numpy_kernel` drops a
network's compiled kernel so that it runs the numpy solve on a host
that has a compiler, and :func:`assert_numpy_ran` checks afterwards
that no solve reached the C kernel. :func:`maxmin_class_solve_py` is
the C kernel's algorithm written loop for loop in Python, the
executable specification the C kernel is diffed against.
"""

from __future__ import annotations

import numpy as np

from repro.des import KERNEL_PYTHON, FlowNetwork

__all__ = ["assert_numpy_ran", "force_numpy_kernel",
           "maxmin_class_solve_py"]


def force_numpy_kernel(net: FlowNetwork) -> FlowNetwork:
    """Make ``net`` solve with numpy; call before its first solve."""
    net._kernel_impl = None
    net.kernel = KERNEL_PYTHON
    return net


def assert_numpy_ran(net: FlowNetwork) -> None:
    """No solve of ``net`` went through the compiled kernel."""
    stats = net.solver_stats
    assert net._kernel_impl is None, "the compiled kernel is attached"
    assert stats["kernel"] == KERNEL_PYTHON, stats["kernel"]
    assert stats["kernel_solves"] == 0, stats


def maxmin_class_solve_py(flow_class: np.ndarray, class_res: np.ndarray,
                          class_cap: np.ndarray, capacities: np.ndarray,
                          fairness_slack: float, rate_out: np.ndarray,
                          cap_used_out: np.ndarray) -> int:
    """Scalar-loop water-filling: the C kernel's algorithm in Python.

    Written with arrays and scalars only (no dicts or lists), mirroring
    the C source loop for loop: it is the executable specification the
    equivalence tests diff the C kernel against bit-for-bit.
    """
    nflows = flow_class.shape[0]
    nct = class_cap.shape[0]
    kmax = class_res.shape[1]
    nres = capacities.shape[0]
    batch = 1.0 + fairness_slack + 1e-12

    for r in range(nres):
        cap_used_out[r] = 0.0
    if nflows == 0:
        return 0

    cmap = np.full(nct, -1, dtype=np.int64)
    for f in range(nflows):
        cmap[flow_class[f]] = -2
    nclasses = 0
    for cid in range(nct):
        if cmap[cid] == -2:
            cmap[cid] = nclasses
            nclasses += 1

    cres = np.empty((nclasses, kmax), dtype=np.int64)
    ccap = np.empty(nclasses, dtype=np.float64)
    cmult = np.zeros(nclasses, dtype=np.float64)
    crate = np.zeros(nclasses, dtype=np.float64)
    cand = np.zeros(nclasses, dtype=np.float64)
    inverse = np.empty(nflows, dtype=np.int64)
    cstart = np.zeros(nclasses + 1, dtype=np.int64)
    for cid in range(nct):
        c = cmap[cid]
        if c < 0:
            continue
        for k in range(kmax):
            cres[c, k] = class_res[cid, k]
        ccap[c] = class_cap[cid]
    for f in range(nflows):
        c = cmap[flow_class[f]]
        inverse[f] = c
        cmult[c] += 1.0
        cstart[c + 1] += 1
    for c in range(nclasses):
        cstart[c + 1] += cstart[c]
    cfill = cstart[:nclasses].copy()
    members = np.empty(nflows, dtype=np.int64)
    for f in range(nflows):
        c = inverse[f]
        members[cfill[c]] = f
        cfill[c] += 1

    unf = np.arange(nclasses, dtype=np.int64)
    n_unf = nclasses
    cap_rem = capacities.astype(np.float64).copy()
    counts = np.zeros(nres, dtype=np.float64)
    consumed = np.zeros(nres, dtype=np.float64)
    newly = np.empty(nclasses, dtype=np.int64)
    buf = np.empty(nflows, dtype=np.int64)
    rounds = 0

    for _ in range(nclasses + nres + 1):
        if n_unf == 0:
            break
        have_res = False
        for r in range(nres):
            counts[r] = 0.0
        for ui in range(n_unf):
            c = unf[ui]
            for k in range(kmax):
                r = cres[c, k]
                if r < 0:
                    break
                counts[r] += cmult[c]
                have_res = True
        if not have_res:
            for ui in range(n_unf):
                c = unf[ui]
                crate[c] = ccap[c]
            break
        s_star = np.inf
        for ui in range(n_unf):
            c = unf[ui]
            cd = np.inf
            for k in range(kmax):
                r = cres[c, k]
                if r < 0:
                    break
                rem = cap_rem[r]
                if rem < 0.0:
                    rem = 0.0
                sh = rem / counts[r]
                if sh < cd:
                    cd = sh
            if ccap[c] < cd:
                cd = ccap[c]
            cand[c] = cd
            if cd < s_star:
                s_star = cd
        thresh = s_star * batch
        n_new = 0
        wi = 0
        for ui in range(n_unf):
            c = unf[ui]
            if cand[c] <= thresh:
                crate[c] = cand[c]
                newly[n_new] = c
                n_new += 1
            else:
                unf[wi] = c
                wi += 1
        n_unf = wi
        m = 0
        for i in range(n_new):
            c = newly[i]
            for p in range(cstart[c], cstart[c + 1]):
                buf[m] = members[p]
                m += 1
        frozen_flows = np.sort(buf[:m]) if n_new > 1 else buf[:m]
        for r in range(nres):
            consumed[r] = 0.0
        for i in range(m):
            c = inverse[frozen_flows[i]]
            rr = crate[c]
            for k in range(kmax):
                r = cres[c, k]
                if r < 0:
                    break
                consumed[r] += rr
        for r in range(nres):
            cap_rem[r] -= consumed[r]
        rounds += 1

    for f in range(nflows):
        rr = crate[inverse[f]]
        rate_out[f] = rr if rr > 1e-12 else 1e-12
    for r in range(nres):
        cap_used_out[r] = capacities[r] - cap_rem[r]
    return rounds
