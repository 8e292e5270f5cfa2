"""Build and bind the columnar C kernel (``_ckernel.c``).

The columnar batch engine runs in three steps — draw in numpy, then
advance and derive in C — and this module provides the C side: a
small kernel compiled **on first use** with the host toolchain
(``$CC``, else ``cc``/``gcc``/``clang``) into a cached shared object —
no build-time extension, no new dependency.  It exports two entry
points, bound as :attr:`Kernel.advance` (``columnar_advance``: the
release streams, built in the kernel on the arithmetic path, plus
every replication's NP-FP schedule) and :attr:`Kernel.derive`
(``columnar_derive``: provenance folds and the monitored windowed
disparity).  The ABI stamp is 4.  Loading is strictly best-effort: any
failure (no compiler, sandboxed tmpdir, ABI drift) records a reason
and the batch layer silently falls back to the per-replication
compiled loop, so the kernel is a pure accelerator, never a
requirement.

Environment knobs:

* ``REPRO_NO_CKERNEL=1`` — disable the kernel (forces the fallback
  tiers; used by differential tests and the no-accelerator CI leg).
* ``REPRO_CKERNEL_CACHE`` — directory for the compiled ``.so``
  (default: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, falling
  back to a per-user tempdir).  The object name embeds a hash of the C
  source and the compile flags, so stale caches are never loaded after
  a source change.
* ``REPRO_CKERNEL_CFLAGS`` — compile flags replacing the default
  ``-O2`` (e.g. ``-O1 -g -fsanitize=address,undefined`` for the
  sanitizer CI leg, which runs with the sanitizer runtime preloaded).
  The flags are part of the cached object's hash, so a sanitized
  object is never loaded by a normal run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

#: ABI stamp; must match ``REPRO_CKERNEL_ABI`` in ``_ckernel.c``.
ABI_VERSION = 4

#: Compile flags when ``REPRO_CKERNEL_CFLAGS`` is unset.
DEFAULT_CFLAGS = "-O2"

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: ``(kernel, reason)`` memo of :func:`load_kernel` — ``None`` until
#: the first call, then a stable answer for the process lifetime.
_STATE: Optional[Tuple[Optional["Kernel"], Optional[str]]] = None

_I64 = ctypes.c_int64
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)
_P_F64 = ctypes.POINTER(ctypes.c_double)

#: ``columnar_advance`` signature (see ``_ckernel.c`` for the layout).
_ADVANCE_ARGTYPES = [
    _I64, _I64, _I64,          # sims, n, n_units
    _I64, _P_I64, _P_I32,      # stream_w, rel_times, rel_tids
    _P_I32,                    # inst
    _I64,                      # duration
    _P_I64, _P_I64, _P_I64,    # bcet, wcet, span
    _P_I64,                    # periods
    _P_I32, _P_U64,            # unit_of, bit_of
    _P_I32, _I64,              # rank_tid, max_ranks
    _I64, _I64, _I64,          # policy_mode, let_mode, track
    _P_F64, _I64,              # variates, n_draws
    _P_I64,                    # offsets
    _P_I64, _P_I64, _P_I64,    # rel_tab, rel_base, rel_len
    _I64,                      # rel_w
    _P_I64, _P_I64, _I64,      # job_base, job_cap, slots
    _P_I64, _P_I64, _P_I32,    # starts_out, fins_out, casc_out
    _P_I64, _P_I64,            # rec_out, viol_out
]

#: ``columnar_derive`` signature (see ``_ckernel.c`` for the layout).
_DERIVE_ARGTYPES = [
    _I64, _I64, _I64,          # sims, n, n_src
    _I64, _I64,                # duration, warmup
    _I64, _I64,                # let_mode, track
    _P_I64, _P_I32, _P_I32,    # periods, inst, src_col
    _P_I32, _I64,              # order, n_order
    _P_I64, _P_I32, _P_I64,    # edge_ptr, edge_src, edge_cap
    _I64,                      # gid
    _P_I64,                    # offsets
    _P_I64, _P_I64, _P_I32,    # starts, fins, casc
    _P_I64,                    # rec
    _P_I64, _P_I64, _I64,      # job_base, job_cap, slots
    _P_I64, _P_I64, _P_I64,    # rel_tab, rel_base, rel_len
    _I64,                      # rel_w
    _P_I64,                    # out
]


class Kernel:
    """A loaded kernel: the ctypes library plus its bound entry points."""

    __slots__ = ("path", "lib", "advance", "derive")

    def __init__(self, path: Path, lib: ctypes.CDLL) -> None:
        self.path = path
        self.lib = lib
        advance = lib.columnar_advance
        advance.argtypes = _ADVANCE_ARGTYPES
        advance.restype = _I64
        self.advance = advance
        derive = lib.columnar_derive
        derive.argtypes = _DERIVE_ARGTYPES
        derive.restype = _I64
        self.derive = derive


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    home = Path.home()
    if home != Path("/"):
        return home / ".cache" / "repro"
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"


def _compilers() -> List[str]:
    """Candidate compiler commands, most specific first."""
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(["cc", "gcc", "clang"])
    found = []
    for name in candidates:
        resolved = shutil.which(name)
        if resolved and resolved not in found:
            found.append(resolved)
    return found


def _cflags() -> List[str]:
    """Compile flags: ``$REPRO_CKERNEL_CFLAGS`` or :data:`DEFAULT_CFLAGS`."""
    return shlex.split(os.environ.get("REPRO_CKERNEL_CFLAGS") or DEFAULT_CFLAGS)


def _build(source: Path, target: Path, cflags: List[str]) -> Optional[str]:
    """Compile ``source`` into ``target``; return a reason on failure."""
    compilers = _compilers()
    if not compilers:
        return "no C compiler on PATH (set $CC or install cc/gcc/clang)"
    target.parent.mkdir(parents=True, exist_ok=True)
    last = "compile failed"
    for cc in compilers:
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        cmd = [cc, *cflags, "-fPIC", "-shared", "-o", str(tmp), str(source)]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            # A timed-out or vanished compiler may leave a partial object.
            tmp.unlink(missing_ok=True)
            last = f"{cc}: {exc}"
            continue
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-200:]
            last = f"{cc} exited {proc.returncode}: {tail}"
            tmp.unlink(missing_ok=True)
            continue
        os.replace(tmp, target)  # atomic: concurrent builders agree
        return None
    return last


def load_kernel() -> Tuple[Optional[Kernel], Optional[str]]:
    """The process-wide kernel, building it on first use.

    Returns ``(kernel, None)`` on success or ``(None, reason)`` when
    the kernel is disabled or unavailable; the answer is memoized, so
    a failed build is attempted once per process.
    """
    global _STATE
    if _STATE is not None:
        return _STATE
    _STATE = _load_uncached()
    return _STATE


def _load_uncached() -> Tuple[Optional[Kernel], Optional[str]]:
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None, "disabled via REPRO_NO_CKERNEL"
    try:
        source_bytes = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    cflags = _cflags()
    digest = hashlib.sha256(
        source_bytes + b"\0" + " ".join(cflags).encode()
    ).hexdigest()[:16]
    try:
        target = _cache_dir() / f"ckernel-abi{ABI_VERSION}-{digest}.so"
        if not target.exists():
            reason = _build(_SOURCE, target, cflags)
            if reason is not None:
                return None, reason
        lib = ctypes.CDLL(str(target))
        abi = lib.repro_ckernel_abi
        abi.restype = _I64
        abi.argtypes = []
        got = int(abi())
        if got != ABI_VERSION:
            return None, f"kernel ABI {got} != expected {ABI_VERSION}"
        return Kernel(target, lib), None
    except OSError as exc:
        return None, f"kernel build/load failed: {exc}"


def reset_kernel_state() -> None:
    """Forget the memoized load result (tests flip the env knobs)."""
    global _STATE
    _STATE = None


__all__ = [
    "ABI_VERSION",
    "DEFAULT_CFLAGS",
    "Kernel",
    "load_kernel",
    "reset_kernel_state",
]
