"""Cache model: LRU order, dirty writebacks, and fill semantics."""

import pytest

from repro.memory.cache import Cache


def one_set_cache(ways: int = 2) -> Cache:
    """A cache with a single set so every line contends for the same ways."""
    return Cache(size_bytes=ways * 64, ways=ways, line_bytes=64)


# Line-aligned addresses; with one set they all collide.
A, B, C, D = 0x000, 0x040, 0x080, 0x0C0


def test_miss_then_fill_then_hit():
    cache = one_set_cache()
    assert cache.lookup(A) is False
    assert cache.fill(A) is None
    assert cache.lookup(A) is True
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_lru_evicts_oldest_line_first():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    evicted = cache.fill(C)
    assert evicted is not None and evicted.line_addr == cache.line_addr(A)
    assert not cache.contains(A) and cache.contains(B) and cache.contains(C)


def test_lookup_hit_refreshes_lru_position():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    cache.lookup(A)  # A becomes MRU, B is now the victim
    evicted = cache.fill(C)
    assert evicted.line_addr == cache.line_addr(B)
    assert cache.contains(A)


def test_eviction_order_tracks_successive_fills():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    first = cache.fill(C)  # evicts A
    second = cache.fill(D)  # evicts B
    assert [first.line_addr, second.line_addr] == [cache.line_addr(A), cache.line_addr(B)]


def test_store_hit_marks_line_dirty_and_eviction_reports_writeback():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.lookup(A, is_store=True)
    cache.fill(B)
    evicted = cache.fill(C)  # evicts dirty A
    assert evicted.dirty is True
    assert cache.stats.writebacks == 1


def test_clean_eviction_is_not_a_writeback():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    evicted = cache.fill(C)
    assert evicted.dirty is False
    assert cache.stats.writebacks == 0


def test_fill_on_present_line_refreshes_without_eviction_and_merges_dirty():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    assert cache.fill(A, dirty=True) is None  # refresh, no eviction
    evicted = cache.fill(C)  # B is LRU now
    assert evicted.line_addr == cache.line_addr(B)
    evicted = cache.fill(D)  # evicts A, which merged the dirty flag
    assert evicted.dirty is True


def test_store_miss_does_not_allocate():
    cache = one_set_cache()
    assert cache.lookup(A, is_store=True) is False
    assert not cache.contains(A)


def test_invalidate_all_clears_lines_but_not_stats():
    cache = one_set_cache()
    cache.fill(A)
    cache.lookup(A)
    cache.invalidate_all()
    assert not cache.contains(A)
    assert cache.stats.hits == 1


def test_probes_of_a_never_filled_set_miss_without_creating_it():
    cache = Cache(size_bytes=4 * 2 * 64, ways=2, line_bytes=64)  # 4 sets
    assert cache.contains(A) is False
    assert cache.lookup(A) is False
    assert cache.lookup(A, is_store=True) is False
    assert cache._sets == [None] * cache.num_sets
    assert cache.stats.misses == 2  # lookups count; contains does not
    cache.fill(A)
    assert sum(s is not None for s in cache._sets) == 1


def _fill_log(cache: Cache) -> list:
    """Victims of a fixed fill/hit/store sequence, plus the writeback count."""
    log = [cache.fill(A), cache.fill(B)]
    cache.lookup(B, is_store=True)  # B dirty
    log += [cache.fill(C), cache.fill(D), cache.fill(A)]  # A, dirty B, C out
    cache.lookup(D)  # D becomes MRU, so A is the next victim
    log.append(cache.fill(B))
    victims = [None if v is None else (v.line_addr, v.dirty) for v in log]
    return victims + [cache.stats.writebacks]


def test_invalidate_all_replays_like_a_fresh_cache():
    fresh = _fill_log(one_set_cache(ways=2))
    line = one_set_cache().line_addr
    assert fresh == [
        None, None, (line(A), False), (line(B), True), (line(C), False),
        (line(A), False), 1,
    ]
    reused = one_set_cache(ways=2)
    _fill_log(reused)
    reused.invalidate_all()
    reused.stats.writebacks = 0
    assert _fill_log(reused) == fresh


def test_miss_rate():
    cache = one_set_cache()
    assert cache.stats.miss_rate == 0.0
    cache.lookup(A)
    cache.fill(A)
    cache.lookup(A)
    assert cache.stats.miss_rate == 0.5


@pytest.mark.parametrize(
    "size,ways,line",
    [(100, 2, 64), (128, 2, 48), (384, 2, 64)],  # indivisible / bad line / 3 sets
)
def test_rejects_bad_geometry(size, ways, line):
    with pytest.raises(ValueError):
        Cache(size_bytes=size, ways=ways, line_bytes=line)
