"""Task-level worst-case time disparity (Definition 2).

The worst-case time disparity of a task ``tau`` is the maximum, over
all jobs ``J`` of ``tau``, of the maximum difference among the
timestamps of all of ``J``'s sources.  Each source is traced through an
immediate backward job chain along one chain of

    P = { every chain from a source task to tau },

so the task-level bound is the maximum over all unordered pairs of
distinct chains in ``P`` of the pairwise bound (Theorem 1 or 2).

``method`` selects the estimator:

* ``"independent"`` — Theorem 1 on every pair (paper's *P-diff*);
* ``"forkjoin"``    — Theorem 2 on every pair (paper's *S-diff*);
* ``"best"``        — the per-pair minimum of the two (both are safe
  upper bounds, so their minimum is safe; an extension beyond the
  paper's reported series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chains.backward import BackwardBoundsCache, BackwardBoundsTable
from repro.core.pairwise import (
    PairwiseResult,
    disparity_bound_forkjoin,
    disparity_bound_independent,
)
from repro.model.chain import Chain, enumerate_source_chains
from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time

Method = str

_VALID_METHODS = ("independent", "forkjoin", "best")

#: Accepted method spellings.  Canonical names are the estimator
#: identifiers; the aliases mirror the series labels the CLI and the
#: paper print (``P-diff`` = Theorem 1, ``S-diff`` = Theorem 2), so the
#: name read off a figure or a CLI table works verbatim in the API.
METHOD_ALIASES: Dict[str, str] = {
    "independent": "independent",
    "p-diff": "independent",
    "pdiff": "independent",
    "theorem1": "independent",
    "forkjoin": "forkjoin",
    "s-diff": "forkjoin",
    "sdiff": "forkjoin",
    "theorem2": "forkjoin",
    "best": "best",
}


def normalize_method(method: Method) -> Method:
    """Map any accepted method spelling to its canonical name.

    Raises:
        ValueError: For an unknown name, listing every accepted choice
            (:class:`ModelError`, a ``ValueError`` subclass).
    """
    canonical = METHOD_ALIASES.get(str(method).strip().lower())
    if canonical is None:
        raise ModelError(
            f"unknown disparity method {method!r}; canonical choices are "
            f"{list(_VALID_METHODS)}, also accepted: "
            f"{sorted(alias for alias in METHOD_ALIASES if alias not in _VALID_METHODS)}"
        )
    return canonical


@dataclass(frozen=True)
class TaskDisparityResult:
    """Worst-case disparity bound of one task, with per-pair evidence.

    ``worst_pair`` is the evidence of the pair attaining ``bound`` (the
    first one in ``combinations(chains, 2)`` order).  ``pair_results``
    holds the evidence of every pair in that order; it is built on
    first access, by the per-pair theorem functions over the same
    bounds cache, since the bound itself comes from one integer pass
    (:func:`pair_bounds`) that builds no per-pair objects.
    """

    task: str
    method: Method
    bound: Time
    chains: Tuple[Chain, ...]
    worst_pair: Optional[PairwiseResult]
    cache: BackwardBoundsCache = field(repr=False, compare=False)
    truncate_suffix: bool

    @cached_property
    def pair_results(self) -> Tuple[PairwiseResult, ...]:
        """Per-pair evidence in ``combinations(chains, 2)`` order."""
        return tuple(
            _pair_bound(lam, nu, self.cache, self.method, self.truncate_suffix)
            for lam, nu in combinations(self.chains, 2)
        )

    @property
    def n_pairs(self) -> int:
        """Number of chain pairs the maximum ranged over."""
        return len(self.chains) * (len(self.chains) - 1) // 2


def _pair_bound(
    lam: Chain,
    nu: Chain,
    cache: BackwardBoundsCache,
    method: Method,
    truncate_suffix: bool,
) -> PairwiseResult:
    if method == "independent":
        return disparity_bound_independent(lam, nu, cache)
    if method == "forkjoin":
        return disparity_bound_forkjoin(lam, nu, cache, truncate_suffix=truncate_suffix)
    if method == "best":
        independent = disparity_bound_independent(lam, nu, cache)
        forkjoin = disparity_bound_forkjoin(
            lam, nu, cache, truncate_suffix=truncate_suffix
        )
        return forkjoin if forkjoin.bound <= independent.bound else independent
    raise ModelError(f"unknown disparity method {method!r}; use one of {_VALID_METHODS}")


def pair_bounds(
    chains: Sequence[Chain],
    cache: BackwardBoundsCache,
    method: Method,
    truncate_suffix: bool = True,
) -> List[Time]:
    """The bound of every chain pair, in ``combinations(chains, 2)`` order.

    Equal, pair for pair, to ``_pair_bound(...).bound`` (Theorem 1,
    Theorem 2 or their minimum), computed in one pass over plain ints:
    each chain is profiled once (:meth:`BackwardBoundsCache.profile`),
    and each pair then truncates its shared suffix by index, finds its
    joints through a name -> position map (sources excluded), asks the
    cache for the ``W``/``B`` of its fork-join sub-chains
    (:meth:`BackwardBoundsCache.spans`, a prefix difference on a
    :class:`BackwardBoundsTable`) and runs the ``[x_j, y_j]`` recursion
    and the shifted operator inline.  A pair the integer pass cannot
    take as-is — tails that differ, no joint at the tail, joints in
    different orders, ``B > W`` or an empty offset interval — is handed
    to the per-pair functions, which raise the same diagnostic they
    always did.
    """
    method = normalize_method(method)
    want_fj = method != "independent"
    want_ind = method != "forkjoin"
    system = cache.system
    sources = set(system.graph.sources())
    period = {name: system.T(name) for chain in chains for name in chain.tasks}
    tasks = [chain.tasks for chain in chains]
    positions = [{name: k for k, name in enumerate(t)} for t in tasks]
    profiles = [cache.profile(chain) for chain in chains]
    whole = [
        cache.spans(profile, (0, len(t) - 1)) if want_ind else None
        for profile, t in zip(profiles, tasks)
    ]
    bounds: List[Time] = []
    for a, ta in enumerate(tasks):
        for b in range(a + 1, len(tasks)):
            tb = tasks[b]
            fj = ind = None
            if ta[-1] == tb[-1]:
                shared_head = ta[0] == tb[0]
                if want_ind:
                    (w_a,), (b_a,) = whole[a]
                    (w_b,), (b_b,) = whole[b]
                    if b_a <= w_a and b_b <= w_b:
                        ind = max(abs(w_a - b_b), abs(w_b - b_a))
                        if shared_head:
                            ind = ind // period[ta[0]] * period[ta[0]]
                if want_fj:
                    end_a = len(ta) - 1
                    end_b = len(tb) - 1
                    if truncate_suffix:
                        while end_a and end_b and ta[end_a - 1] == tb[end_b - 1]:
                            end_a -= 1
                            end_b -= 1
                    if truncate_suffix and end_a == 0 and end_b == 0:
                        fj = 0  # identical chains: a single source job
                    else:
                        fj = _forkjoin_ints(
                            ta, end_a, profiles[a], positions[b], end_b,
                            profiles[b], shared_head, cache, sources, period,
                        )
            if (want_fj and fj is None) or (want_ind and ind is None):
                # Not an integer-pass pair: the per-pair functions
                # decide (and raise their usual diagnostic).
                bounds.append(
                    _pair_bound(chains[a], chains[b], cache, method, truncate_suffix).bound
                )
            elif ind is None or (fj is not None and fj <= ind):
                bounds.append(fj)
            else:
                bounds.append(ind)
    return bounds


def _forkjoin_ints(
    ta: Tuple[str, ...],
    end_a: int,
    profile_a,
    pos_b: Dict[str, int],
    end_b: int,
    profile_b,
    shared_head: bool,
    cache: BackwardBoundsCache,
    sources,
    period: Dict[str, Time],
) -> Optional[Time]:
    """Theorem 2 of one pair over ``ta[:end_a+1]`` / ``tb[:end_b+1]``.

    ``None`` when the pair needs the per-pair function (see
    :func:`pair_bounds`).
    """
    cuts_a = [0]
    cuts_b = [0]
    joint_periods = []
    last = -1
    for i in range(end_a + 1):
        name = ta[i]
        j = pos_b.get(name)
        if j is None or j > end_b or name in sources:
            continue
        if j <= last:
            return None  # common tasks in different orders
        last = j
        cuts_a.append(i)
        cuts_b.append(j)
        joint_periods.append(period[name])
    if last != end_b or cuts_a[-1] != end_a:
        return None  # the tail is not a (non-source) joint
    ws_a, bs_a = cache.spans(profile_a, cuts_a)
    ws_b, bs_b = cache.spans(profile_b, cuts_b)
    x = y = 0
    t_next = joint_periods[-1]
    for k in range(len(joint_periods) - 1, 0, -1):
        wa = ws_a[k]
        ba = bs_a[k]
        wb = ws_b[k]
        bb = bs_b[k]
        t_here = joint_periods[k - 1]
        x = -((wb - ba - x * t_next) // t_here)  # ceil((ba - wb + x T) / T')
        y = (wa - bb + y * t_next) // t_here
        if x > y or ba > wa or bb > wb:
            return None
        t_next = t_here
    wa = ws_a[0]
    ba = bs_a[0]
    wb = ws_b[0]
    bb = bs_b[0]
    if ba > wa or bb > wb:
        return None
    operator = max(abs(wb - ba - x * t_next), abs(bb - wa - y * t_next))
    if shared_head:
        source_period = period[ta[0]]
        return operator // source_period * source_period
    return operator


def worst_case_disparity(
    system: System,
    task: str,
    *,
    method: Method = "forkjoin",
    truncate_suffix: bool = True,
    cache: Optional[BackwardBoundsCache] = None,
    chains: Optional[Tuple[Chain, ...]] = None,
) -> TaskDisparityResult:
    """Bound the worst-case time disparity of ``task``.

    Enumerates ``P`` and maximizes the selected pairwise bound over all
    unordered pairs of distinct chains.  A task reachable from at most
    one source chain has zero disparity by definition.

    Args:
        system: The analyzed system.
        task: Name of the analyzed task.
        method: ``"independent"`` (P-diff), ``"forkjoin"`` (S-diff) or
            ``"best"`` — aliases like ``"p-diff"``/``"s-diff"`` are
            accepted too (see :data:`METHOD_ALIASES`).
        truncate_suffix: Truncate shared chain suffixes before the
            fork-join decomposition (no effect on Theorem 1).
        cache: Optional shared backward-bounds cache (reuse across
            tasks of the same system).
        chains: Pre-enumerated source chains of ``task`` (an
            :class:`repro.api.AnalysisSession` passes its memoized
            enumeration; when ``None`` they are enumerated here).

    The pair bounds come from :func:`pair_bounds`; only the winning
    pair (the first with the largest bound) is rebuilt as a
    :class:`PairwiseResult` by the per-pair theorem functions, and
    ``pair_results`` is built on first access.

    Periodic releases only: Theorems 1-3 use the fact that release
    differences are exact multiples of the task periods (the
    ``floor_to_period`` rounding and the Theorem 2 offset recursion).
    Jittered or sporadic workloads raise a structured
    :class:`~repro.analysis_regime.RegimeError` — measure them with the
    simulation tiers instead.
    """
    from repro.analysis_regime import regime_of

    regime_of(system).require_analytical(
        "worst-case time disparity bound (Theorems 1-3)"
    )
    method = normalize_method(method)
    if cache is None:
        # Standalone call: one DAG-shared bounds table instead of a
        # per-chain cache.
        cache = BackwardBoundsTable(system)
    if chains is None:
        chains = enumerate_source_chains(system.graph, task)
    bounds = pair_bounds(chains, cache, method, truncate_suffix)
    worst: Optional[PairwiseResult] = None
    if bounds:
        # max() keeps the first maximal pair, as the strict ">" did.
        index = max(range(len(bounds)), key=bounds.__getitem__)
        lam, nu = next(islice(combinations(chains, 2), index, None))
        worst = _pair_bound(lam, nu, cache, method, truncate_suffix)
    return TaskDisparityResult(
        task=task,
        method=method,
        bound=worst.bound if worst is not None else 0,
        chains=chains,
        worst_pair=worst,
        cache=cache,
        truncate_suffix=truncate_suffix,
    )


def disparity_bound(
    system: System,
    task: str,
    *,
    method: Method = "forkjoin",
    truncate_suffix: bool = True,
    cache: Optional[BackwardBoundsCache] = None,
    chains: Optional[Tuple[Chain, ...]] = None,
) -> Time:
    """Just the numeric bound of :func:`worst_case_disparity`."""
    return worst_case_disparity(
        system,
        task,
        method=method,
        truncate_suffix=truncate_suffix,
        cache=cache,
        chains=chains,
    ).bound


def all_sink_disparities(
    system: System,
    *,
    method: Method = "forkjoin",
    truncate_suffix: bool = True,
) -> Dict[str, TaskDisparityResult]:
    """Disparity bounds of every sink task, sharing one bounds table."""
    cache = BackwardBoundsTable(system)
    return {
        sink: worst_case_disparity(
            system, sink, method=method, truncate_suffix=truncate_suffix, cache=cache
        )
        for sink in system.graph.sinks()
    }


def check_disparity_requirement(
    system: System,
    task: str,
    threshold: Time,
    *,
    method: Method = "forkjoin",
) -> bool:
    """Verify the paper's design requirement: disparity within a range.

    Returns True when the worst-case time disparity bound of ``task``
    is at most ``threshold`` — the verification question posed at the
    start of Section III ("whether the time disparity of a task is
    bounded by a pre-defined value").
    """
    return disparity_bound(system, task, method=method) <= threshold
