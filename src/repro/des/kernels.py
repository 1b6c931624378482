"""Compiled water-filling kernels for :mod:`repro.des.bandwidth`.

The max-min fair-share solve is the hottest loop of the whole DES once
storms reach ~10⁵ concurrent flows: the numpy flow-class solver pays a
handful of O(F) vectorised passes *per freeze round*, which flattens
out around 10⁴ flows. This module provides a compiled implementation of
the same per-component solve — capacity residuals, bottleneck
selection, grant scatter — selected with ``REPRO_KERNEL``:

- ``python`` (default): the numpy implementation in
  :meth:`repro.des.bandwidth.FlowNetwork._maxmin_rates`. Always
  available, no dependencies beyond numpy.
- ``compiled``: a C translation of the flow-class water-filling rounds,
  built on first use with the system C compiler into a content-addressed
  shared library (``~/.cache/repro/kernels``, override with
  ``REPRO_KERNEL_CACHE``) and loaded through :mod:`ctypes`. When the
  library cannot be built (no C compiler, unwritable cache), requesting
  ``compiled`` raises a :class:`~repro.errors.SimulationError` naming
  the failure — loud beats silently running 10x slower.

Bit-identity contract
---------------------

The compiled kernel reproduces the numpy solve *bit for bit*, not just
to tolerance: every floating-point operation happens on the same values
in the same order (IEEE-754 doubles, round-to-nearest), in particular

- per-resource occupancy counts are exact small-integer sums, so their
  accumulation order is free;
- candidate rates are ``min(min_k share[res_k], cap)`` with divisions
  on identical operands;
- the capacity consumed by a freeze batch is accumulated **per flow in
  ascending slot order** (the C side merges the frozen classes' member
  lists and sorts), exactly like the numpy scatter, then subtracted
  from the residuals in one elementwise pass.

``tests/test_kernel_equivalence.py`` asserts equality with
``np.ndarray.tobytes()`` on randomized storms, at ``fairness_slack=0``
and above, so either kernel can serve any cached sweep — the kernel
name is still folded into cache keys as a guard.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "KERNEL_COMPILED",
    "KERNEL_PYTHON",
    "MaxminKernel",
    "compiled_kernel",
    "kernel_status",
    "maxmin_class_solve_np",
    "maxmin_class_solve_py",
    "resolve_kernel",
]

#: Use the compiled (C via ctypes) water-filling kernel.
KERNEL_COMPILED = "compiled"
#: Use the pure numpy water-filling solve (always available).
KERNEL_PYTHON = "python"


def resolve_kernel(kernel: Optional[str]) -> str:
    """Explicit argument beats ``REPRO_KERNEL`` beats the default."""
    if kernel is None:
        kernel = os.environ.get("REPRO_KERNEL", "").strip() or KERNEL_PYTHON
    kernel = kernel.strip().lower()
    if kernel not in (KERNEL_COMPILED, KERNEL_PYTHON):
        raise SimulationError(
            f"unknown kernel {kernel!r} (REPRO_KERNEL); expected "
            f"{KERNEL_COMPILED!r} or {KERNEL_PYTHON!r}")
    return kernel


# --------------------------------------------------------------------- #
# the C backend
# --------------------------------------------------------------------- #
# A direct translation of FlowNetwork._maxmin_rates' flow-class rounds.
# Comments reference the numpy statements being reproduced; the order of
# every floating-point operation matches (see module docstring).
_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Max-min fair rates over flow equivalence classes.
 *
 * flow_class[f] is the interned class id of the f-th solved flow, in
 * ascending slot order; class_res/class_cap are the full interned class
 * tables (rows indexed by class id, -1-padded resource lists). Outputs:
 * rate_out[f] (floored at 1e-12) and cap_used_out[r] = capacity -
 * residual. Returns the number of freeze rounds, or -1 on allocation
 * failure. */
int64_t repro_maxmin_class_solve(
    int64_t nflows, const int64_t *flow_class,
    int64_t nclasses_total, int64_t kmax,
    const int64_t *class_res, const double *class_cap,
    int64_t nres, const double *capacities,
    double fairness_slack,
    double *rate_out, double *cap_used_out)
{
    int64_t f, c, k, r, id, ui;
    int64_t nclasses = 0, rounds = 0;
    /* batch = 1.0 + self.fairness_slack + 1e-12 */
    const double batch = 1.0 + fairness_slack + 1e-12;

    int64_t *cmap = NULL, *cres = NULL, *inverse = NULL, *members = NULL;
    int64_t *cstart = NULL, *cfill = NULL, *unf = NULL, *newly = NULL;
    int64_t *buf = NULL;
    double *ccap = NULL, *cmult = NULL, *crate = NULL, *cand = NULL;
    double *counts = NULL, *cap_rem = NULL, *consumed = NULL;

    for (r = 0; r < nres; r++)
        cap_used_out[r] = 0.0;
    if (nflows == 0)
        return 0;

    /* -- intern the classes present in this solve ---------------------- */
    cmap = (int64_t *)malloc((size_t)nclasses_total * sizeof(int64_t));
    if (!cmap) goto fail;
    for (id = 0; id < nclasses_total; id++)
        cmap[id] = -1;
    for (f = 0; f < nflows; f++)
        cmap[flow_class[f]] = -2;
    /* present classes in ascending id order, as np.unique returns them */
    for (id = 0; id < nclasses_total; id++)
        if (cmap[id] == -2)
            cmap[id] = nclasses++;

    cres = (int64_t *)malloc((size_t)(nclasses * kmax) * sizeof(int64_t));
    ccap = (double *)malloc((size_t)nclasses * sizeof(double));
    cmult = (double *)malloc((size_t)nclasses * sizeof(double));
    crate = (double *)calloc((size_t)nclasses, sizeof(double));
    cand = (double *)malloc((size_t)nclasses * sizeof(double));
    inverse = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    members = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    buf = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    cstart = (int64_t *)calloc((size_t)(nclasses + 1), sizeof(int64_t));
    cfill = (int64_t *)malloc((size_t)nclasses * sizeof(int64_t));
    unf = (int64_t *)malloc((size_t)nclasses * sizeof(int64_t));
    newly = (int64_t *)malloc((size_t)nclasses * sizeof(int64_t));
    counts = (double *)malloc((size_t)nres * sizeof(double));
    cap_rem = (double *)malloc((size_t)nres * sizeof(double));
    consumed = (double *)malloc((size_t)nres * sizeof(double));
    if (!cres || !ccap || !cmult || !crate || !cand || !inverse ||
        !members || !buf || !cstart || !cfill || !unf || !newly ||
        !counts || !cap_rem || !consumed)
        goto fail;

    for (id = 0; id < nclasses_total; id++) {
        c = cmap[id];
        if (c < 0)
            continue;
        for (k = 0; k < kmax; k++)
            cres[c * kmax + k] = class_res[id * kmax + k];
        ccap[c] = class_cap[id];
        cmult[c] = 0.0;
    }
    for (f = 0; f < nflows; f++) {
        c = cmap[flow_class[f]];
        inverse[f] = c;
        cmult[c] += 1.0;          /* exact: multiplicities are integers */
        cstart[c + 1] += 1;
    }
    for (c = 0; c < nclasses; c++)
        cstart[c + 1] += cstart[c];
    for (c = 0; c < nclasses; c++)
        cfill[c] = cstart[c];
    /* member lists ascend within each class: flows scanned in order */
    for (f = 0; f < nflows; f++)
        members[cfill[inverse[f]]++] = f;

    for (c = 0; c < nclasses; c++)
        unf[c] = c;               /* unfrozen, ascending present order */
    for (r = 0; r < nres; r++)
        cap_rem[r] = capacities[r];

    /* -- the freeze rounds: for _ in range(nclasses + nres + 1) -------- */
    {
        int64_t n_unf = nclasses;
        int64_t iter, max_iter = nclasses + nres + 1;
        for (iter = 0; iter < max_iter; iter++) {
            int64_t have_res = 0, n_new = 0, m = 0, wi = 0, i;
            double s_star = INFINITY, thresh;
            if (n_unf == 0)
                break;
            /* occupancy counts over unfrozen classes (exact int sums) */
            memset(counts, 0, (size_t)nres * sizeof(double));
            for (ui = 0; ui < n_unf; ui++) {
                c = unf[ui];
                for (k = 0; k < kmax; k++) {
                    r = cres[c * kmax + k];
                    if (r < 0)
                        break;
                    counts[r] += cmult[c];
                    have_res = 1;
                }
            }
            if (!have_res) {
                /* remaining flows touch no capacity: bounded by caps */
                for (ui = 0; ui < n_unf; ui++) {
                    c = unf[ui];
                    crate[c] = ccap[c];
                }
                break;
            }
            /* candidate per class: min share across resources, then cap
             * (share = max(cap_rem, 0) / counts, as the numpy solve) */
            for (ui = 0; ui < n_unf; ui++) {
                double cd = INFINITY;
                c = unf[ui];
                for (k = 0; k < kmax; k++) {
                    double sh, rem;
                    r = cres[c * kmax + k];
                    if (r < 0)
                        break;
                    rem = cap_rem[r];
                    if (rem < 0.0)
                        rem = 0.0;
                    sh = rem / counts[r];
                    if (sh < cd)
                        cd = sh;
                }
                if (ccap[c] < cd)
                    cd = ccap[c];
                cand[c] = cd;
                if (cd < s_star)
                    s_star = cd;
            }
            /* freeze = unfrozen & (candidate <= s_star * batch) */
            thresh = s_star * batch;
            for (ui = 0; ui < n_unf; ui++) {
                c = unf[ui];
                if (cand[c] <= thresh) {
                    crate[c] = cand[c];
                    newly[n_new++] = c;
                } else {
                    unf[wi++] = c;  /* stable compaction keeps order */
                }
            }
            n_unf = wi;
            /* scatter consumption per flow in ascending slot order, as
             * np.add.at over the frozen flows does, then subtract */
            for (i = 0; i < n_new; i++) {
                c = newly[i];
                for (f = cstart[c]; f < cstart[c + 1]; f++)
                    buf[m++] = members[f];
            }
            if (n_new > 1)
                qsort(buf, (size_t)m, sizeof(int64_t), cmp_i64);
            memset(consumed, 0, (size_t)nres * sizeof(double));
            for (i = 0; i < m; i++) {
                double rr;
                c = inverse[buf[i]];
                rr = crate[c];
                for (k = 0; k < kmax; k++) {
                    r = cres[c * kmax + k];
                    if (r < 0)
                        break;
                    consumed[r] += rr;
                }
            }
            for (r = 0; r < nres; r++)
                cap_rem[r] -= consumed[r];
            rounds++;
        }
    }

    /* rate = max(crate[inverse], 1e-12); cap_used = capacities - cap_rem */
    for (f = 0; f < nflows; f++) {
        double rr = crate[inverse[f]];
        rate_out[f] = rr > 1e-12 ? rr : 1e-12;
    }
    for (r = 0; r < nres; r++)
        cap_used_out[r] = capacities[r] - cap_rem[r];

    free(cmap); free(cres); free(ccap); free(cmult); free(crate);
    free(cand); free(inverse); free(members); free(buf); free(cstart);
    free(cfill); free(unf); free(newly); free(counts); free(cap_rem);
    free(consumed);
    return rounds;

fail:
    free(cmap); free(cres); free(ccap); free(cmult); free(crate);
    free(cand); free(inverse); free(members); free(buf); free(cstart);
    free(cfill); free(unf); free(newly); free(counts); free(cap_rem);
    free(consumed);
    return -1;
}
"""


def _kernel_cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "kernels")


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC", "").strip()
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _build_c_library() -> str:
    """Compile the kernel into a content-addressed ``.so``; return its path.

    The library name embeds a hash of the C source, so editing the
    kernel never reuses a stale binary; concurrent builders (sweep
    worker processes) race benignly through an atomic ``os.replace``.
    """
    cc = _find_compiler()
    if cc is None:
        raise SimulationError(
            "no C compiler found (tried $CC, cc, gcc, clang)")
    digest = hashlib.blake2b(_C_SOURCE.encode("utf-8"),
                             digest_size=10).hexdigest()
    cache_dir = _kernel_cache_dir()
    lib_path = os.path.join(cache_dir, f"maxmin_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache_dir, exist_ok=True)
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    tmp_lib = src_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        cmd = [cc, "-O2", "-shared", "-fPIC", "-o", tmp_lib, src_path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SimulationError(
                f"kernel compilation failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()}")
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (src_path, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return lib_path


_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


def _load_c_solver() -> Callable:
    lib = ctypes.CDLL(_build_c_library())
    fn = lib.repro_maxmin_class_solve
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64, _I64,              # nflows, flow_class
        ctypes.c_int64, ctypes.c_int64,    # nclasses_total, kmax
        _I64, _F64,                        # class_res, class_cap
        ctypes.c_int64, _F64,              # nres, capacities
        ctypes.c_double,                   # fairness_slack
        _F64, _F64,                        # rate_out, cap_used_out
    ]
    return fn


# --------------------------------------------------------------------- #
# the vectorised numpy solve (the ``python`` kernel, callable standalone)
# --------------------------------------------------------------------- #
def maxmin_class_solve_np(flow_class: np.ndarray, class_res: np.ndarray,
                          class_cap: np.ndarray, capacities: np.ndarray,
                          fairness_slack: float
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised flow-class water-filling over an explicit class table.

    The body of ``FlowNetwork._maxmin_rates``'s class path, written
    over explicit tables with the same signature as the compiled kernel.
    Returns ``(rate, cap_used)`` like :meth:`MaxminKernel.solve`.
    """
    nres = capacities.size
    batch = 1.0 + fairness_slack + 1e-12

    present, inverse, mult = np.unique(
        flow_class, return_inverse=True, return_counts=True)
    cres = class_res[present]                 # (C, K)
    cvalid = cres >= 0                        # (C, K)
    cres_clipped = np.where(cvalid, cres, 0)  # (C, K)
    ccaps = class_cap[present]                # (C,)
    cmult = mult.astype(float)                # (C,)
    nclasses = present.size
    kmax = class_res.shape[1]

    crate = np.zeros(nclasses, dtype=float)
    cfrozen = np.zeros(nclasses, dtype=bool)
    cap_rem = capacities.astype(float).copy()
    # Round-invariant buffers, hoisted out of the freeze loop.
    counts = np.empty(nres, dtype=float)
    share = np.empty(nres, dtype=float)
    consumed = np.empty(nres, dtype=float)

    for _ in range(nclasses + nres + 1):
        unfrozen = ~cfrozen
        if not unfrozen.any():
            break
        live_valid = cvalid[unfrozen]
        members = cres[unfrozen][live_valid]
        if members.size == 0:
            # Remaining flows touch no capacity: bounded by caps only.
            crate[unfrozen] = ccaps[unfrozen]
            break
        weights = np.broadcast_to(
            cmult[unfrozen, None], live_valid.shape)[live_valid]
        counts.fill(0.0)
        np.add.at(counts, members, weights)
        used = counts > 0
        share.fill(np.inf)
        share[used] = np.maximum(cap_rem[used], 0.0) / counts[used]
        # Per-class candidate: min share across its resources, then cap.
        class_share = np.where(cvalid, share[cres_clipped], np.inf)
        candidate = np.minimum(class_share.min(axis=1), ccaps)
        s_star = float(candidate[unfrozen].min())

        freeze = unfrozen & (candidate <= s_star * batch)
        crate[freeze] = candidate[freeze]
        cfrozen[freeze] = True
        # Scatter consumption per flow, in ascending slot order, so the
        # floating-point accumulation matches the per-flow solve.
        rows = inverse[freeze[inverse]]       # class row per frozen flow
        consumed.fill(0.0)
        flat_rate = np.repeat(candidate[rows], kmax)
        flat_res = cres_clipped[rows].ravel()
        flat_valid = cvalid[rows].ravel()
        np.add.at(consumed, flat_res[flat_valid], flat_rate[flat_valid])
        cap_rem -= consumed

    rate = crate[inverse]
    # Numerical safety: every active flow must make progress.
    np.maximum(rate, 1e-12, out=rate)
    # The residual capacities double as the consumed-bandwidth table
    # for the incremental-arrival fast path.
    return rate, capacities - cap_rem


# --------------------------------------------------------------------- #
# the scalar spec (the C kernel's executable spec)
# --------------------------------------------------------------------- #
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


class MaxminKernel:
    """Handle on the loaded C kernel; ``solve`` mirrors
    ``FlowNetwork._maxmin_rates``."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable) -> None:
        self._fn = fn

    def solve(self, flow_class: np.ndarray, class_res: np.ndarray,
              class_cap: np.ndarray, capacities: np.ndarray,
              fairness_slack: float) -> Tuple[np.ndarray, np.ndarray]:
        rate = np.empty(flow_class.size, dtype=np.float64)
        cap_used = np.empty(capacities.size, dtype=np.float64)
        rounds = self._fn(
            flow_class.size, flow_class, class_cap.size,
            class_res.shape[1], class_res, class_cap,
            capacities.size, capacities, float(fairness_slack),
            rate, cap_used)
        if rounds < 0:
            raise SimulationError(
                f"compiled maxmin kernel ran out of "
                f"memory for {flow_class.size} flows")
        return rate, cap_used


# Probe memo: (kernel-or-None, error-message-or-None); probing compiles,
# so it must run at most once per process.
_PROBE: Optional[Tuple[Optional[MaxminKernel], Optional[str]]] = None


def _probe() -> Tuple[Optional[MaxminKernel], Optional[str]]:
    global _PROBE
    if _PROBE is not None:
        return _PROBE
    try:
        _PROBE = (MaxminKernel(_load_c_solver()), None)
    except Exception as exc:  # compiler missing, cc error, bad cache dir
        _PROBE = (None, f"C backend: {exc}")
    return _PROBE


def compiled_kernel() -> MaxminKernel:
    """The C kernel, building it on first call; raises
    :class:`~repro.errors.SimulationError` when it cannot be loaded."""
    kernel, error = _probe()
    if kernel is None:
        raise SimulationError(
            f"REPRO_KERNEL=compiled requested but the C kernel could "
            f"not be built ({error}); set REPRO_KERNEL=python or "
            f"install a C compiler")
    return kernel


def kernel_status() -> str:
    """``c`` when the C kernel loads, else ``unavailable`` (for
    diagnostics; never raises, but does build on first call)."""
    kernel, _error = _probe()
    return "c" if kernel is not None else "unavailable"
