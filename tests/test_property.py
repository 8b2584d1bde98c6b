"""Property-based tests (hypothesis) for the storage primitives — the
reference's exhaustive-unit-test tier (SURVEY.md §5.1) taken further."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marginalia_ray.index.postings import (
    BLOCK_SIZE,
    block_counts,
    decode_blocks,
    encode_run,
    varbyte_decode,
    varbyte_encode_with_sizes,
)
from marginalia_ray.model.codecs import (
    doc_meta_quality,
    doc_meta_year_byte,
    encode_doc_meta,
    encode_word_meta,
    word_meta_flags,
    word_meta_positions,
)

u64s = st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=300)


@given(u64s)
@settings(max_examples=200, deadline=None)
def test_varbyte_roundtrip(values):
    v = np.array(values, dtype=np.uint64)
    enc, sizes = varbyte_encode_with_sizes(v)
    assert sizes.sum() == len(enc)
    dec = varbyte_decode(enc, len(v))
    assert (dec == v).all()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),  # term bucket
            st.integers(min_value=0, max_value=(1 << 63) - 1),  # doc id
        ),
        min_size=1,
        max_size=500,
    )
)
@settings(max_examples=100, deadline=None)
def test_encode_run_roundtrip(pairs):
    # lexsorted unique (term, doc) stream
    pairs = sorted(set(pairs))
    terms = np.array([p[0] for p in pairs], dtype=np.uint64)
    ids = np.array([p[1] for p in pairs], dtype=np.uint64)
    metas = np.arange(len(ids), dtype=np.uint64)

    run = encode_run(terms, ids, metas)
    # every term decodes back to its sorted doc ids
    uniq_terms = run["term_hash"]
    for i, t in enumerate(uniq_terms):
        o, nb, df = int(run["offset"][i]), int(run["nbytes"][i]), int(run["doc_freq"][i])
        counts = block_counts(df, np.arange(-(-df // BLOCK_SIZE)))
        got = decode_blocks(run["deltas"][o : o + nb], counts)
        want = ids[terms == t]
        assert (got == want).all()
    # metas aligned with the posting stream
    assert (run["metas"] == metas).all()
    # block counts consistent
    nblocks = ((run["doc_freq"] + BLOCK_SIZE - 1) // BLOCK_SIZE).sum()
    assert nblocks == len(run["block_max"])


@given(
    st.integers(min_value=0, max_value=(1 << 56) - 1),
    st.integers(min_value=0, max_value=(1 << 9) - 1),
)
@settings(max_examples=200, deadline=None)
def test_word_meta_roundtrip(positions, flags):
    enc = encode_word_meta(positions, flags)
    assert word_meta_positions(enc) == positions
    assert word_meta_flags(enc) == (flags & 0xFF)  # 8-bit truncation quirk


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=15),
)
@settings(max_examples=100, deadline=None)
def test_doc_meta_fields(year, quality):
    enc = encode_doc_meta(year=year, quality=quality)
    assert int(doc_meta_year_byte(np.array([enc], dtype=np.uint64))[0]) == year
    assert int(doc_meta_quality(np.array([enc], dtype=np.uint64))[0]) == quality
