"""Property-based invariants for serving telemetry merges.

Fleet aggregation folds shard telemetry into a coordinator view in
whatever order shards happen to finish, possibly tree-wise.  These
tests pin the algebra that makes that safe: ``Histogram.merge`` /
``Telemetry.merge`` are order-invariant and associative over
*randomized* shard splits -- any partition of one observation stream,
merged in any order or grouping, yields the same aggregate.

Sample values are multiples of 1/64 (exactly representable in binary
floating point), so sums compare bit-equal across merge orders; with
arbitrary floats the sums would only agree to rounding, which is a
float artefact, not a telemetry property.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    BUCKET_MIN,
    EXACT_SAMPLE_LIMIT,
    Counter,
    Histogram,
    Telemetry,
)


def exact_values(rng, count):
    """``count`` non-negative floats on the 1/64 grid (exact sums)."""
    return (rng.integers(0, 4096, size=count) / 64.0).tolist()


def split(rng, values, shards):
    """Partition ``values`` into ``shards`` (possibly empty) runs."""
    assignments = rng.integers(0, shards, size=len(values))
    return [[v for v, a in zip(values, assignments) if a == s]
            for s in range(shards)]


def histogram_of(values, name="h"):
    histogram = Histogram(name)
    for value in values:
        histogram.observe(value)
    return histogram


def fingerprint(histogram):
    """Everything a merge must preserve, percentiles included."""
    return (histogram.count, histogram.total, histogram.mean,
            histogram.exact,
            tuple(histogram.percentile(p) for p in (0, 50, 90, 99, 100)))


@pytest.mark.parametrize("total,shards", [(40, 2), (96, 5), (300, 7)])
def test_histogram_merge_order_invariant(total, shards):
    rng = np.random.default_rng(total * 31 + shards)
    values = exact_values(rng, total)
    parts = split(rng, values, shards)
    reference = histogram_of(values)
    for trial in range(5):
        order = rng.permutation(shards)
        merged = Histogram("h")
        for index in order:
            merged.merge(histogram_of(parts[index]))
        assert fingerprint(merged) == fingerprint(reference)


def test_histogram_merge_associative():
    rng = np.random.default_rng(7)
    values = exact_values(rng, 120)
    a, b, c = split(rng, values, 3)
    left = histogram_of(a).merge(histogram_of(b)).merge(
        histogram_of(c))
    right = histogram_of(a).merge(
        histogram_of(b).merge(histogram_of(c)))
    assert fingerprint(left) == fingerprint(right)


def test_merge_never_mutates_other():
    rng = np.random.default_rng(11)
    other = histogram_of(exact_values(rng, 50))
    before = fingerprint(other)
    histogram_of(exact_values(rng, 50)).merge(other)
    assert fingerprint(other) == before


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_bucketed_merge_order_invariant(shards):
    """Past the exact limit the algebra must hold on the bucket grid."""
    rng = np.random.default_rng(shards)
    values = exact_values(rng, EXACT_SAMPLE_LIMIT + 200)
    parts = split(rng, values, shards)
    reference = histogram_of(values)
    assert not reference.exact  # the fold really happened
    merged = Histogram("h")
    for index in rng.permutation(shards):
        merged.merge(histogram_of(parts[index]))
    assert fingerprint(merged) == fingerprint(reference)
    # bucket contents agree exactly, not just the percentile readout
    np.testing.assert_array_equal(merged._buckets,
                                  reference._buckets)


def test_mixed_mode_merge_folds_to_buckets():
    """exact + exact crossing the limit lands on the shared grid."""
    rng = np.random.default_rng(3)
    big = histogram_of(exact_values(rng, EXACT_SAMPLE_LIMIT - 10))
    small = histogram_of(exact_values(rng, 50))
    assert big.exact and small.exact
    big.merge(small)
    assert not big.exact
    assert big.count == EXACT_SAMPLE_LIMIT + 40


def test_fold_happens_exactly_past_the_limit():
    """Exactly ``EXACT_SAMPLE_LIMIT`` observations stay exact; the
    next one crosses into bucketed mode with nothing lost."""
    rng = np.random.default_rng(9)
    values = exact_values(rng, EXACT_SAMPLE_LIMIT)
    histogram = histogram_of(values)
    assert histogram.exact
    assert histogram.count == EXACT_SAMPLE_LIMIT
    exact_p50 = histogram.percentile(50.0)
    histogram.observe(values[0])
    assert not histogram.exact
    assert histogram.count == EXACT_SAMPLE_LIMIT + 1
    assert histogram.total == pytest.approx(sum(values) + values[0])
    # bucket-mode percentile stays within the grid's ~9% relative
    # error of the exact readout
    if exact_p50 > 0:
        assert histogram.percentile(50.0) == \
            pytest.approx(exact_p50, rel=0.1)


def test_bucketed_underflow_percentiles():
    """Sub-``BUCKET_MIN`` values (zeros included) land in the
    underflow bucket and still read out inside [min, max]."""
    histogram = Histogram("lat")
    tiny = [0.0, 1e-9, 1e-8] * ((EXACT_SAMPLE_LIMIT // 3) + 1)
    for value in tiny:
        histogram.observe(value)
    assert not histogram.exact
    for p in (0.0, 50.0, 99.0, 100.0):
        value = histogram.percentile(p)
        assert 0.0 <= value <= 1e-8
    # a lone large value keeps the high percentiles honest; the
    # median interpolates inside the underflow bucket [0, BUCKET_MIN)
    histogram.observe(4.0)
    assert histogram.percentile(100.0) == 4.0
    assert histogram.percentile(50.0) < BUCKET_MIN


def test_bucketed_overflow_percentiles():
    """Beyond-grid values land in the overflow bucket; percentiles
    that fall there report the observed max, never an edge value."""
    histogram = Histogram("bytes")
    for _ in range(EXACT_SAMPLE_LIMIT + 10):
        histogram.observe(1.0)
    histogram.observe(3.5e12)                      # >> grid top (~1e9)
    histogram.observe(7.0e12)
    assert not histogram.exact
    assert histogram.percentile(100.0) == 7.0e12
    assert histogram.percentile(50.0) == pytest.approx(1.0, rel=0.1)


def test_merge_exact_into_bucketed_and_back():
    """Merging across modes (either direction) buckets the result and
    preserves count/total/min/max exactly."""
    rng = np.random.default_rng(21)
    values = exact_values(rng, EXACT_SAMPLE_LIMIT + 200)
    bucketed = histogram_of(values)
    assert not bucketed.exact
    extra = exact_values(rng, 30)
    exact = histogram_of(extra)
    assert exact.exact

    folded = histogram_of(values).merge(exact)     # bucketed <- exact
    assert not folded.exact
    assert folded.count == len(values) + len(extra)
    assert folded.total == sum(values) + sum(extra)

    other = histogram_of(extra).merge(bucketed)    # exact <- bucketed
    assert not other.exact
    assert (other.count, other.total) == (folded.count, folded.total)
    assert other.percentile(50.0) == \
        pytest.approx(folded.percentile(50.0), rel=1e-9)


def telemetry_of(rows, name="t"):
    telemetry = Telemetry()
    for counter, amount, histogram, value in rows:
        telemetry.counter(counter).inc(amount)
        telemetry.histogram(histogram).observe(value)
    return telemetry


def telemetry_fingerprint(telemetry):
    return (
        {n: c.value for n, c in telemetry.counters().items()},
        {n: fingerprint(h) for n, h in telemetry.histograms().items()},
    )


@pytest.mark.parametrize("shards", [2, 3, 6])
def test_telemetry_merge_order_invariant(shards):
    rng = np.random.default_rng(100 + shards)
    rows = [(f"c{int(rng.integers(3))}", float(rng.integers(1, 5)),
             f"h{int(rng.integers(2))}", value)
            for value in exact_values(rng, 150)]
    parts = split(rng, rows, shards)
    reference = telemetry_of(rows)
    for trial in range(3):
        merged = Telemetry()
        for index in rng.permutation(shards):
            merged.merge(telemetry_of(parts[index]))
        assert telemetry_fingerprint(merged) == \
            telemetry_fingerprint(reference)


def test_telemetry_merge_associative():
    rng = np.random.default_rng(42)
    rows = [("decisions", 1.0, "latency", value)
            for value in exact_values(rng, 90)]
    a, b, c = (telemetry_of(part) for part in split(rng, rows, 3))
    a2, b2, c2 = (telemetry_of(part) for part in split(
        np.random.default_rng(42), rows, 3))
    left = a.merge(b).merge(c)
    right_inner = b2.merge(c2)
    right = a2.merge(right_inner)
    assert telemetry_fingerprint(left) == telemetry_fingerprint(right)


# ---- bulk updates == one update per sample ----------------------------
#
# The serving core buffers a cell's decisions and folds them into its
# registry with one ``observe_many`` / ``inc_many`` / ``inc(n)`` per
# instrument; the fold must leave exactly what the per-sample loop
# leaves, floats included.

#: Zero, negatives, repeats, the underflow bucket's edge and values
#: past the last bucket edge.
EDGE_SAMPLES = [0.0, -0.0, -3.5, -3.5, BUCKET_MIN / 2, BUCKET_MIN,
                2.5, 2.5, 1e9, 4e9, 1e12]
SAMPLES = st.one_of(
    st.sampled_from(EDGE_SAMPLES),
    st.floats(min_value=-1e3, max_value=1e12, allow_nan=False))


@st.composite
def sample_runs(draw):
    """A float list whose length straddles ``EXACT_SAMPLE_LIMIT`` (a
    seeded bulk plus a drawn tail) and a split of it into consecutive
    chunks."""
    bulk = draw(st.sampled_from(
        [0, 3, EXACT_SAMPLE_LIMIT - 4, EXACT_SAMPLE_LIMIT,
         EXACT_SAMPLE_LIMIT + 30]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    values = np.random.default_rng(seed).lognormal(
        0.0, 3.0, size=bulk).tolist()
    values += draw(st.lists(SAMPLES, max_size=24))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(values)), max_size=6)))
    return values, [0] + cuts + [len(values)]


def reading(histogram):
    """State plus every derived reading the SLO layer takes."""
    return (histogram.state(),
            [histogram.percentile(p) for p in (0, 50, 90, 99, 100)],
            [histogram.count_over(t)
             for t in (-10.0, 0.0, 1e-7, 1.0, 2.5, 1e3, 2e9, 1e13)])


@given(sample_runs())
@settings(max_examples=60, deadline=None)
def test_observe_many_is_the_observe_loop(run):
    values, cuts = run
    looped = histogram_of(values)
    whole = Histogram("h")
    whole.observe_many(values)
    chunked = Histogram("h")
    for lo, hi in zip(cuts, cuts[1:]):
        chunked.observe_many(np.asarray(values[lo:hi]))
    assert reading(whole) == reading(looped)
    assert reading(chunked) == reading(looped)
    # ... and merges the same way afterwards, into and out of it
    other = histogram_of(exact_values(np.random.default_rng(3), 50))
    assert reading(Histogram("h").merge(chunked).merge(other)) == \
        reading(Histogram("h").merge(looped).merge(other))
    assert reading(histogram_of(other.state()["samples"])
                   .merge(chunked)) == \
        reading(histogram_of(other.state()["samples"]).merge(looped))


def test_observe_many_sum_is_ordered_not_pairwise(monkeypatch):
    """The property above has teeth: with ``np.sum`` (pairwise) in
    place of the left-to-right accumulate the bulk sum is a different
    float from the loop's."""
    from repro.obs import metrics

    values = np.random.default_rng(5).lognormal(0.0, 2.0, size=300)
    looped = histogram_of(values.tolist())
    ordered = Histogram("h")
    ordered.observe_many(values)
    assert ordered.total == looped.total
    monkeypatch.setattr(
        metrics, "_running_sum",
        lambda start, array: float(start + np.sum(array)))
    pairwise = Histogram("h")
    pairwise.observe_many(values)
    assert pairwise.total != looped.total
    assert pairwise.total == pytest.approx(looped.total)


@given(st.lists(st.integers(min_value=0, max_value=500), max_size=12),
       st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
@settings(max_examples=60, deadline=None)
def test_counter_bulk_increments(counts, amounts):
    looped, bulk = Counter("c"), Counter("c")
    for n in counts:            # inc(n) == n x inc()
        for _ in range(n):
            looped.inc()
        bulk.inc(n)
    assert bulk.value == looped.value == sum(counts)
    for amount in amounts:      # inc_many(xs) == inc(x) for x in xs
        looped.inc(amount)
    bulk.inc_many(amounts)
    assert bulk.value == looped.value
    with pytest.raises(ValueError, match="only increase"):
        bulk.inc_many([1.0, -1.0])
    assert bulk.value == looped.value


@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=30, deadline=None)
def test_bulk_trace_count_is_that_many_empty_spans(outer, inner):
    from repro.obs.trace import Tracer

    attrs = {"cell": 3, "scenario": "bursty"}
    looped, bulk = Tracer(), Tracer()
    with looped.span("shard", {}):
        for _ in range(outer):
            with looped.span("serve.decide", attrs):
                for _ in range(inner):
                    with looped.span("serve.forward", attrs):
                        pass
    with bulk.span("shard", {}):
        if outer:
            bulk.add("serve.decide", attrs, outer)
        if outer * inner:
            bulk.add("serve.decide/serve.forward", attrs, outer * inner)

    def counts(tracer):
        return {key: row["count"]
                for key, row in tracer.rollup().items()}

    assert counts(bulk) == counts(looped)
    timed = Tracer()
    with timed.span("shard", {}):
        timed.add("serve.decide", attrs, 2, total_s=0.5, child_s=0.25)
        timed.add("serve.decide/serve.forward", attrs, 2, total_s=0.25)
    rollup = timed.rollup()
    assert rollup[("shard", ())]["child_ms"] == 500.0
    assert rollup[("shard/serve.decide",
                   (("cell", "3"), ("scenario", "bursty")))] == {
        "count": 2, "total_ms": 500.0, "child_ms": 250.0, "sampled": 0}
