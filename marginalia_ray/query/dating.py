"""Dating-service browsing session: the stateful queue/history object the
reference's random-website "dating" UI drives.

Ports ``DatingSessionObject`` (services-satellite/dating-service/src/main/
java/nu/marginalia/dating/DatingSessionObject.java:12-90) and the
service's viable-domain skip loop (``DatingService.findViableDomain``,
DatingService.java:175-181) exactly:

  * ``queue`` and ``recentlyViewed`` are capped deques (both max 100);
  * ``next`` refills the queue with 25 random domains when empty, then
    pops the head;
  * ``next_similar`` PREPENDS the similar-domain list (so the first
    similar result is browsed next), trims the tail to the cap, pops;
  * ``browse_forward`` pushes the current result onto history;
    ``browse_backward`` pushes it back onto the queue head;
  * ``is_recent`` = in history or currently shown — the dedup the skip
    loop uses;
  * ``find_viable_domain`` keeps drawing random domains until one has a
    screenshot and is not recent.

Providers are plain callables so the session is storage-agnostic:
``random_provider(count) -> list[BrowseResult]`` (the reference's
DbBrowseDomainsRandom — ops/browse.random_domains with a fresh seed per
call) and ``similar_provider(domain_id, count) -> list[BrowseResult]``
(DbBrowseDomainsSimilarCosine — BrowseArtifact.similar_domains).  This is
per-user session state, not a data-plane op; it lives driver/serving
side and is pytest-verified (tests/test_browse.py), not SQL-oracled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass(frozen=True)
class BrowseResult:
    """nu.marginalia.browse.model.BrowseResult: (url, domain_id,
    relatedness)."""

    url: str
    domain_id: int
    relatedness: float = 0.0


MAX_HISTORY_SIZE = 100
MAX_QUEUE_SIZE = 100
RANDOM_REFILL = 25
SIMILAR_PULL = 25


class DatingSession:
    """DatingSessionObject.java:12-90, field-for-field."""

    def __init__(self) -> None:
        self.queue: deque[BrowseResult] = deque()
        self.recently_viewed: deque[BrowseResult] = deque()
        self._current: Optional[BrowseResult] = None

    # --- core queue ops -------------------------------------------------
    def set_current(self, result: BrowseResult) -> BrowseResult:
        self._current = result
        return result

    def next(self, random_provider: Callable[[int], Sequence[BrowseResult]]) -> Optional[BrowseResult]:
        """next(DbBrowseDomainsRandom, blacklist): refill 25 when empty,
        pop head (DatingSessionObject.java:25-30)."""
        if not self.queue:
            for r in random_provider(RANDOM_REFILL):
                self.queue.append(r)
        return self.queue.popleft() if self.queue else None

    def next_similar(
        self,
        domain_id: int,
        similar_provider: Callable[[int, int], Sequence[BrowseResult]],
    ) -> Optional[BrowseResult]:
        """nextSimilar (DatingSessionObject.java:32-40): prepend the
        similar list (each addFirst — so the LAST provider row ends up at
        the head), trim the tail, pop."""
        for r in similar_provider(domain_id, SIMILAR_PULL):
            self.queue.appendleft(r)
        while len(self.queue) > MAX_QUEUE_SIZE:
            self.queue.pop()
        return self.queue.popleft() if self.queue else None

    # --- navigation -----------------------------------------------------
    def browse_forward(self, res: BrowseResult) -> None:
        if self._current is not None:
            self.add_to_history(self._current)
        self.set_current(res)

    def browse_backward(self, res: BrowseResult) -> None:
        if self._current is not None:
            self.add_to_queue(self._current)
        self.set_current(res)

    def add_to_history(self, res: BrowseResult) -> BrowseResult:
        self.recently_viewed.appendleft(res)
        while len(self.recently_viewed) > MAX_HISTORY_SIZE:
            self.recently_viewed.pop()
        return res

    def add_to_queue(self, res: BrowseResult) -> BrowseResult:
        self.queue.appendleft(res)
        while len(self.queue) > MAX_QUEUE_SIZE:
            self.queue.pop()
        return res

    def take_from_history(self) -> Optional[BrowseResult]:
        return self.recently_viewed.popleft() if self.recently_viewed else None

    def has_history(self) -> bool:
        return bool(self.recently_viewed)

    def is_recent(self, res: BrowseResult) -> bool:
        return res in self.recently_viewed or res == self._current

    def reset_queue(self) -> None:
        self.queue.clear()

    @property
    def current(self) -> Optional[BrowseResult]:
        return self._current


def find_viable_domain(
    session: DatingSession,
    res: BrowseResult,
    random_provider: Callable[[int], Sequence[BrowseResult]],
    has_screenshot: Callable[[int], bool],
    max_draws: int = 10_000,
) -> BrowseResult:
    """DatingService.findViableDomain (DatingService.java:175-181): skip
    screenshot-less or recently-seen results by drawing more randoms.
    ``max_draws`` bounds the loop (the reference spins forever on a
    screenshot-less corpus)."""
    draws = 0
    while not has_screenshot(res.domain_id) or session.is_recent(res):
        nxt = session.next(random_provider)
        if nxt is None or draws >= max_draws:
            raise RuntimeError(
                "find_viable_domain: no viable domain in the random set"
            )
        res = nxt
        draws += 1
    return res
