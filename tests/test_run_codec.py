"""Property test of the posting-run readers: every way SegmentShardReader
decodes a run (one term's whole list, a block-max subset of it, a whole
bucket) must agree with the (term, doc) stream that write_run was given."""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marginalia_ray.index.postings import BLOCK_SIZE
from marginalia_ray.index.segment import SegmentShardReader, write_run

U64 = np.uint64
GAPS = np.array([1, 1, 2, 3, 50, 1 << 20, 1 << 33], dtype=U64)


def _stream(seed: int, n_terms: int, max_df: int):
    """A lexsorted, (term, doc)-unique posting stream with aligned metas;
    the first term always holds more than one block."""
    rng = np.random.default_rng(seed)
    term_hashes = np.unique(rng.integers(0, 1 << 64, n_terms, dtype=U64, endpoint=False))
    terms, ids = [], []
    for k, th in enumerate(term_hashes):
        df = 2 * BLOCK_SIZE + 3 if k == 0 else int(rng.integers(1, max_df + 1))
        ids.append(np.cumsum(rng.choice(GAPS, df), dtype=U64))
        terms.append(np.full(df, th, dtype=U64))
    terms, ids = np.concatenate(terms), np.concatenate(ids)
    metas = rng.integers(0, 1 << 64, len(ids), dtype=U64, endpoint=False)
    return terms, ids, metas


def _buckets(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    """Monotone doc-range bucket per posting (quantile split points)."""
    u = np.unique(ids)
    bounds = np.unique(u[(np.arange(1, n_buckets) * len(u)) // n_buckets])
    return np.searchsorted(bounds, ids, side="right")


def _candidate_sets(rng, ids_by_bucket: list[np.ndarray], all_ids: np.ndarray):
    """Sorted candidate sets: the empty set, every block's max id, ids past
    the last block, and a random mix of members and non-members."""
    block_max = np.concatenate(
        [np.r_[p[BLOCK_SIZE - 1 :: BLOCK_SIZE], p[-1:]] for p in ids_by_bucket if len(p)]
    )
    past = all_ids[-1] + np.arange(1, 4, dtype=U64)
    members = rng.choice(all_ids, min(len(all_ids), 5), replace=False)
    strangers = rng.integers(0, int(all_ids[-1]) + 2, 5, dtype=np.int64).astype(U64)
    return [
        np.zeros(0, dtype=U64),
        np.unique(block_max),
        past,
        np.unique(np.r_[members, strangers, past]),
    ]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_terms=st.integers(min_value=1, max_value=5),
    max_df=st.sampled_from([1, 5, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE]),
    n_buckets=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_subset_full_and_bucket_decodes_agree(seed, n_terms, max_df, n_buckets):
    terms, ids, metas = _stream(seed, n_terms, max_df)
    bucket = _buckets(ids, n_buckets)
    rng = np.random.default_rng(seed + 1)
    with tempfile.TemporaryDirectory() as d:
        for b in np.unique(bucket):
            sel = bucket == b
            write_run(d, "full", 0, int(b), terms[sel], ids[sel], metas[sel])
            write_run(d, "prio", 0, int(b), terms[sel], ids[sel], None)
        full = SegmentShardReader(d, "full", 0)
        prio = SegmentShardReader(d, "prio", 0)

        # the per-bucket iterator gives back the stream each bucket was given
        for rd, want_metas in ((full, metas), (prio, None)):
            got = list(rd.iter_buckets())
            assert [g[0] for g in got] == [int(b) for b in np.unique(bucket)]
            for b, t_out, i_out, m_out in got:
                sel = bucket == b
                np.testing.assert_array_equal(t_out, terms[sel])
                np.testing.assert_array_equal(i_out, ids[sel])
                if want_metas is None:
                    assert m_out is None
                else:
                    np.testing.assert_array_equal(m_out, want_metas[sel])

        for th in np.unique(terms):
            mine = terms == th
            all_ids, all_metas = full.postings(th)
            np.testing.assert_array_equal(all_ids, ids[mine])
            np.testing.assert_array_equal(all_metas, metas[mine])
            assert full.doc_freq(th) == mine.sum()
            np.testing.assert_array_equal(prio.postings(th)[0], ids[mine])
            ids_by_bucket = [ids[mine & (bucket == b)] for b in np.unique(bucket)]
            for cand in _candidate_sets(rng, ids_by_bucket, all_ids):
                sub_ids, sub_metas = full.postings_overlap(th, cand)
                assert np.isin(sub_ids, all_ids).all()
                assert (np.diff(sub_ids.astype(np.float64)) > 0).all()
                # retain and reject
                kept = np.isin(cand, all_ids)
                np.testing.assert_array_equal(kept, np.isin(cand, sub_ids))
                # meta gather for the retained candidates
                hit = cand[kept]
                np.testing.assert_array_equal(
                    all_metas[np.searchsorted(all_ids, hit)],
                    sub_metas[np.searchsorted(sub_ids, hit)],
                )
                p_ids, p_metas = prio.postings_overlap(th, cand)
                np.testing.assert_array_equal(p_ids, sub_ids)
                assert p_metas is None
