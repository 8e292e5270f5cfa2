"""Backward-time bounds under non-preemptive fixed-priority scheduling.

The *backward time* of an immediate backward job chain
``len(pi_k) = r(pi_k^{|pi|}) - r(pi_k^1)`` measures how far in the past
the source datum of an output was released (Section II-C).  The paper
bounds it from above (Lemma 4) and below (Lemma 5):

* **Lemma 4 (WCBT upper bound).**  ``W(pi) = sum_{i=1}^{|pi|-1} theta_i``
  where the per-hop budget ``theta_i`` depends on where consecutive
  tasks run:

  - different units:        ``theta_i = T(pi^i) + R(pi^i)``
  - same unit, hp producer: ``theta_i = T(pi^i)``
  - same unit, lp producer: ``theta_i = T(pi^i) + R(pi^i) - (W(pi^i) + B(pi^{i+1}))``

  The same-unit refinements are what make this bound tighter than the
  scheduling-agnostic state of the art (see :mod:`repro.chains.duerr`).

* **Lemma 5 (BCBT lower bound).**
  ``B(pi) = sum_{i=1}^{|pi|} B(pi^i) - R(pi^{|pi|})`` — possibly
  *negative*: the source job of an immediate backward job chain can be
  released after the tail job (the tail reads data produced by a job
  that started before it but was released later... strictly, a negative
  bound simply reflects that release-time differences can invert).

Both bounds apply per chain and are the ``W``/``B`` ingredients of all
disparity theorems.

**Buffered channels (Lemma 6, generalized).**  Section IV enlarges the
input channel of a chain's second task to a FIFO of capacity ``n``; in
the long term (buffer full) a reader always peeks the oldest element,
whose timestamp trails the newest arrival by ``(n-1)`` producer
periods, so both bounds shift: ``W(pi)^n = W(pi) + (n-1) T(pi^1)`` and
``B(pi)^n = B(pi) + (n-1) T(pi^1)``.  The same argument applies to a
FIFO on *any* hop ``(pi^i, pi^{i+1})`` with shift ``(n-1) T(pi^i)``;
the functions below therefore account for every channel capacity along
the chain, with Lemma 6 as the head-channel special case.  The shifted
*lower* bound is only valid once buffers are full — the simulator's
metrics use a warm-up horizon accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis_regime import max_release_gap, regime_of
from repro.model.chain import Chain
from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time


@dataclass(frozen=True)
class BackwardBounds:
    """The ``[B(pi), W(pi)]`` interval of a chain's backward time."""

    chain: Chain
    wcbt: Time
    bcbt: Time

    def __post_init__(self) -> None:
        if self.bcbt > self.wcbt:
            raise ModelError(
                f"inconsistent backward bounds for {self.chain}: "
                f"BCBT={self.bcbt} > WCBT={self.wcbt}"
            )

    @property
    def width(self) -> Time:
        """Width of the sampling window this chain induces."""
        return self.wcbt - self.bcbt


def hop_budget(system: System, producer: str, consumer: str) -> Time:
    """``theta_i`` of Lemma 4 for one hop ``producer -> consumer``.

    The producer must actually precede the consumer in the graph; the
    caller (``wcbt_upper``) guarantees this by walking a validated
    chain.
    """
    T_p = system.T(producer)
    R_p = system.R(producer)
    if not system.same_unit(producer, consumer):
        return T_p + R_p
    if system.in_hp(producer, consumer):
        return T_p
    # Same unit, producer has lower priority than consumer.
    return T_p + R_p - (system.W(producer) + system.B(consumer))


def buffer_shift(chain: Chain, system: System) -> Time:
    """Total backward-time shift from buffered channels along the chain.

    ``sum over hops of (capacity - 1) * T(producer)`` — zero for the
    all-register base model; the head-channel case is Lemma 6.
    """
    shift = 0
    for producer, consumer in chain.edges():
        capacity = system.graph.channel(producer, consumer).capacity
        if capacity > 1:
            shift += (capacity - 1) * system.T(producer)
    return shift


def wcbt_upper(chain: Chain, system: System) -> Time:
    """Lemma 4 (+ Lemma 6 shift): upper bound ``W(pi)`` on the WCBT.

    Periodic releases only: the per-hop budget ``theta_i`` counts
    whole producer periods between reads, which release jitter and
    sporadic gaps invalidate (see :mod:`repro.analysis_regime`).
    """
    regime_of(system).require_analytical("WCBT upper bound (Lemma 4)")
    chain.validate(system.graph)
    if len(chain) == 1:
        return 0
    total = 0
    for producer, consumer in chain.edges():
        total += hop_budget(system, producer, consumer)
    return total + buffer_shift(chain, system)


def bcbt_lower(chain: Chain, system: System) -> Time:
    """Lemma 5 (+ Lemma 6 shift): lower bound ``B(pi)`` on the BCBT.

    With buffered channels the bound holds in the long term only
    (buffers full); see the module docstring.  Periodic releases only,
    as for :func:`wcbt_upper`.
    """
    regime_of(system).require_analytical("BCBT lower bound (Lemma 5)")
    chain.validate(system.graph)
    if len(chain) == 1:
        return 0
    total = sum(system.B(name) for name in chain)
    return total - system.R(chain.tail) + buffer_shift(chain, system)


def backward_bounds(chain: Chain, system: System) -> BackwardBounds:
    """Both bounds of a chain as a :class:`BackwardBounds` record."""
    return BackwardBounds(
        chain=chain,
        wcbt=wcbt_upper(chain, system),
        bcbt=bcbt_lower(chain, system),
    )


class BackwardBoundsCache:
    """Memoized per-chain backward bounds.

    The disparity analysis of a task evaluates ``W``/``B`` for every
    sub-chain of every pair of chains in ``P``; sub-chains repeat
    heavily across pairs (common prefixes through the fork-join
    structure), so memoization is a large constant-factor win at Fig. 6
    scale.

    ``strategy`` computes the bounds for one chain and defaults to the
    paper's non-preemptive bounds (:func:`backward_bounds`).  Passing a
    different strategy retargets *every* disparity theorem to another
    communication/scheduling model — e.g.
    :func:`repro.let.backward_bounds_let` for Logical Execution Time —
    because Theorems 1-3 only consume the per-chain ``[B, W]``
    intervals plus task periodicity.
    """

    def __init__(self, system: System, strategy=None) -> None:
        self._system = system
        self._strategy = strategy if strategy is not None else backward_bounds
        self._cache: Dict[Tuple[str, ...], BackwardBounds] = {}

    @property
    def system(self) -> System:
        """The system the cached bounds were computed against."""
        return self._system

    def bounds(self, chain: Chain) -> BackwardBounds:
        """Bounds of ``chain``, computed once and memoized."""
        key = chain.tasks
        found = self._cache.get(key)
        if found is None:
            found = self._strategy(chain, self._system)
            self._cache[key] = found
        return found

    def wcbt(self, chain: Chain) -> Time:
        """Memoized ``W(chain)``."""
        return self.bounds(chain).wcbt

    def bcbt(self, chain: Chain) -> Time:
        """Memoized ``B(chain)``."""
        return self.bounds(chain).bcbt

    def register(self, chains: Iterable[Chain]) -> None:
        """Pre-compute the bounds of ``chains`` (and their prefixes).

        A no-op beyond warming the memo.
        """
        for chain in chains:
            self.bounds(chain)

    def profile(self, chain: Chain):
        """Per-chain state that :meth:`spans` reads.

        Here the task tuple itself: every span is a memoized
        :meth:`bounds` lookup of the sub-chain.
        """
        return chain.tasks

    def spans(
        self, profile, cuts: Sequence[int]
    ) -> Tuple[List[Time], List[Time]]:
        """``W`` and ``B`` of consecutive sub-chains of one chain.

        Span ``k`` runs from position ``cuts[k]`` to ``cuts[k + 1]``
        (both inclusive) of the chain whose :meth:`profile` is given;
        ``cuts`` ascends and only its first two entries may be equal (a
        single-task span).  The all-pairs disparity pass asks this once
        per chain and pair, for the fork-join sub-chains ``alpha_j`` /
        ``beta_j`` between consecutive joints.
        """
        tasks = profile
        memo = self._cache
        ws: List[Time] = []
        bs: List[Time] = []
        start = cuts[0]
        for stop in cuts[1:]:
            key = tasks[start : stop + 1]
            found = memo.get(key)
            if found is None:
                found = self.bounds(Chain(key))
            ws.append(found.wcbt)
            bs.append(found.bcbt)
            start = stop
        return ws, bs

    def __len__(self) -> int:
        return len(self._cache)


class BackwardBoundsTable(BackwardBoundsCache):
    """DAG-shared backward bounds: a prefix-sharing dynamic program.

    The disparity analysis evaluates ``W``/``B`` for every sub-chain of
    every decomposition of every chain pair, and those sub-chains share
    almost all of their prefixes (they are paths through one DAG).  The
    plain :class:`BackwardBoundsCache` memoizes whole chains but still
    pays ``O(len(chain))`` per *distinct* chain; this table instead

    * computes each per-hop ingredient exactly once per **edge**
      (``theta_i`` of Lemma 4 plus the Lemma 6 capacity shift folded
      into one interned edge weight) and once per **task** (``B`` and
      ``R``), and
    * accumulates ``W``/``B`` along a trie of chain prefixes, so a
      chain costs ``O(1)`` amortized once any chain sharing its prefix
      has been seen.

    Both lemmas are sums of per-edge/per-task terms, so the prefix
    recurrence is exact:

        W(pi[:k+1])  = W(pi[:k])  + theta(pi^k, pi^{k+1}) + shift(edge)
        SB(pi[:k+1]) = SB(pi[:k]) + B(pi^{k+1}) + shift(edge)
        B(pi)        = SB(pi) - R(pi.tail)          (len > 1)

    with ``W = B = 0`` for single-task chains, matching
    :func:`wcbt_upper` / :func:`bcbt_lower` bit for bit.  The same
    sums make any sub-chain ``i..j`` of a profiled chain an ``O(1)``
    prefix difference (:meth:`spans`):

        W(pi[i..j]) = PW[j] - PW[i]
        B(pi[i..j]) = PB[j] - PB[i] + B(pi^i) - R(pi^j)

    where ``PW``/``PB`` accumulate the edge terms from the chain head.

    The LET bounds (:func:`repro.let.backward_bounds_let`) are sums of
    per-edge terms too — ``gap`` or ``T + gap`` for ``W``, ``0`` or
    ``T`` for ``B``, plus the capacity shift, with no head or tail term
    — so that strategy runs the same DP on LET edge weights.  Any other
    ``strategy`` bypasses the DP and behaves exactly like the base
    cache: the recurrence is only known to be sound for these additive
    bounds.
    """

    def __init__(self, system: System, strategy=None) -> None:
        from repro.let.analysis import backward_bounds_let

        super().__init__(system, strategy=strategy)
        if strategy is None:
            self._dp = "implicit"
        elif strategy is backward_bounds_let:
            self._dp = "let"
        else:
            self._dp = None
        # Classified once.  Only the implicit bounds need periodic
        # releases (the LET ones survive jitter and sporadic gaps), and
        # a non-periodic system is refused per query, not here, so a
        # session over it can still simulate.
        self._regime = regime_of(system)
        self._gated = self._dp == "implicit" and not self._regime.analytical
        # tasks-tuple -> (W accumulator, sum-of-B accumulator), both
        # including every capacity shift along the prefix.
        self._prefix: Dict[Tuple[str, ...], Tuple[Time, Time]] = {}
        self._edge_weight: Dict[Tuple[str, str], Tuple[Time, Time]] = {}
        self._task_b: Dict[str, Time] = {}
        self._task_r: Dict[str, Time] = {}
        self._profiles: Dict[Tuple[str, ...], Tuple[List[Time], ...]] = {}

    def _edge(self, producer: str, consumer: str) -> Tuple[Time, Time]:
        """Interned ``(W term + shift, B term + shift)`` of one hop."""
        key = (producer, consumer)
        found = self._edge_weight.get(key)
        if found is None:
            system = self._system
            channel = system.graph.channel(producer, consumer)
            shift = (channel.capacity - 1) * system.T(producer)
            if self._dp == "let":
                gap = max_release_gap(system.graph.task(producer))
                if system.is_source(producer):
                    w_term, b_term = gap, 0
                else:
                    period = system.T(producer)
                    w_term, b_term = period + gap, period
            else:
                w_term = hop_budget(system, producer, consumer)
                b_term = self._b(consumer)
            found = (w_term + shift, b_term + shift)
            self._edge_weight[key] = found
        return found

    def _b(self, name: str) -> Time:
        """Head term of ``B``: the task's BCET (0 under LET)."""
        found = self._task_b.get(name)
        if found is None:
            found = 0 if self._dp == "let" else self._system.B(name)
            self._task_b[name] = found
        return found

    def _r(self, name: str) -> Time:
        """Tail term of ``B``: the task's WCRT (0 under LET)."""
        found = self._task_r.get(name)
        if found is None:
            found = 0 if self._dp == "let" else self._system.R(name)
            self._task_r[name] = found
        return found

    def _accumulators(self, tasks: Tuple[str, ...]) -> Tuple[Time, Time]:
        """``(W, sum B)`` of the prefix ``tasks``, extending the trie.

        Walks back to the longest already-known prefix and extends it
        one edge at a time, memoizing every intermediate prefix.
        """
        prefix = self._prefix
        found = prefix.get(tasks)
        if found is not None:
            return found
        # Find the longest memoized ancestor.
        known = len(tasks) - 1
        while known > 1 and tasks[:known] not in prefix:
            known -= 1
        if known <= 1:
            acc = (0, self._b(tasks[0]))
            prefix[tasks[:1]] = acc
            known = 1
        else:
            acc = prefix[tasks[:known]]
        w_acc, sb_acc = acc
        for index in range(known, len(tasks)):
            w_edge, b_edge = self._edge(tasks[index - 1], tasks[index])
            w_acc += w_edge
            sb_acc += b_edge
            prefix[tasks[: index + 1]] = (w_acc, sb_acc)
        return (w_acc, sb_acc)

    def _lookup_failed(self, chain: Chain, exc: KeyError) -> ModelError:
        """The diagnostic of an unknown edge or task in ``chain``."""
        chain.validate(self._system.graph)
        return ModelError(f"backward bounds lookup failed for {chain}: {exc}")

    def bounds(self, chain: Chain) -> BackwardBounds:
        """Bounds of ``chain`` via the prefix DP (memoized)."""
        if self._dp is None:
            return super().bounds(chain)
        if self._gated:
            # The DP inlines Lemmas 4/5 without calling wcbt_upper /
            # bcbt_lower, so it must repeat their periodic-release gate.
            self._regime.require_analytical("backward bounds (Lemmas 4-5)")
        key = chain.tasks
        found = self._cache.get(key)
        if found is None:
            if len(key) == 1:
                found = BackwardBounds(chain=chain, wcbt=0, bcbt=0)
            else:
                try:
                    w_acc, sb_acc = self._accumulators(key)
                except KeyError as exc:
                    raise self._lookup_failed(chain, exc) from exc
                found = BackwardBounds(
                    chain=chain, wcbt=w_acc, bcbt=sb_acc - self._r(key[-1])
                )
            self._cache[key] = found
        return found

    def profile(self, chain: Chain):
        """``(PW, head, tail)`` prefix arrays of ``chain`` (memoized).

        ``W(i..j) = PW[j] - PW[i]`` and ``B(i..j) = tail[j] + head[i]``
        for ``j > i``, with ``head[i] = B(pi^i) - PB[i]`` and
        ``tail[j] = PB[j] - R(pi^j)`` folding the per-task terms in.
        """
        if self._dp is None:
            return super().profile(chain)
        if self._gated:
            self._regime.require_analytical("backward bounds (Lemmas 4-5)")
        tasks = chain.tasks
        found = self._profiles.get(tasks)
        if found is None:
            pw = [0]
            head = [self._b(tasks[0])]
            tail = [-self._r(tasks[0])]
            w_acc = b_acc = 0
            try:
                for index in range(1, len(tasks)):
                    name = tasks[index]
                    w_edge, b_edge = self._edge(tasks[index - 1], name)
                    w_acc += w_edge
                    b_acc += b_edge
                    pw.append(w_acc)
                    head.append(self._b(name) - b_acc)
                    tail.append(b_acc - self._r(name))
            except KeyError as exc:
                raise self._lookup_failed(chain, exc) from exc
            found = self._profiles[tasks] = (pw, head, tail)
        return found

    def spans(
        self, profile, cuts: Sequence[int]
    ) -> Tuple[List[Time], List[Time]]:
        """Prefix differences over ``profile`` (see the base method)."""
        if self._dp is None:
            return super().spans(profile, cuts)
        pw, head, tail = profile
        pairs = list(zip(cuts, cuts[1:]))
        ws = [pw[stop] - pw[start] for start, stop in pairs]
        bs = [tail[stop] + head[start] for start, stop in pairs]
        if cuts[0] == cuts[1]:
            bs[0] = 0  # a single-task span: W = B = 0
        return ws, bs
