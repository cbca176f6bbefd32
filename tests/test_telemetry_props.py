"""Property-based invariants for serving telemetry merges.

Fleet aggregation folds shard telemetry into a coordinator view in
whatever order shards happen to finish, possibly tree-wise.  These
tests pin the algebra that makes that safe -- ``Histogram.merge`` /
``Telemetry.merge`` are order-invariant and associative over
*randomized* shard splits, state for state -- the histogram sketch's
accuracy contract (every percentile within ``RELATIVE_ACCURACY`` of the
sample at its rank, p0 / p100 exact, ``count_over`` off by at most the
threshold bucket's count), and that a JSONL export read back is the
registry it was written from.

Merge sample values are multiples of 1/64 (exactly representable in
binary floating point), so sums compare bit-equal across merge orders;
with arbitrary floats the sums would only agree to rounding, which is a
float artefact, not a telemetry property.
"""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    BUCKET_MIN,
    GAMMA,
    RELATIVE_ACCURACY,
    Counter,
    Histogram,
    Telemetry,
    _LOG_GAMMA,
    read_telemetry,
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
    """Everything a merge must preserve: the state itself and the
    readouts derived from it."""
    return (histogram.state(), histogram.mean,
            tuple(histogram.percentile(p) for p in (0, 50, 90, 99, 100)))


def bucket_keys(values):
    """The sketch's bucket key of each value above ``BUCKET_MIN``."""
    return np.ceil(np.log(np.asarray(values, dtype=float)) / _LOG_GAMMA)


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


GRID_RUNS = st.lists(st.integers(min_value=0, max_value=4096)
                     .map(lambda n: n / 64.0), max_size=120)


@given(GRID_RUNS, GRID_RUNS, GRID_RUNS)
@settings(max_examples=80, deadline=None)
def test_merge_is_commutative_and_associative(a, b, c):
    """Bucket counts are integers, so a merge is exact: every grouping
    and order of three parts leaves the state one histogram of all of
    them leaves -- equal, not close."""
    whole = histogram_of(a + b + c).state()
    left = histogram_of(a).merge(histogram_of(b)).merge(histogram_of(c))
    right = histogram_of(a).merge(histogram_of(b).merge(histogram_of(c)))
    swapped = histogram_of(c).merge(histogram_of(a)).merge(
        histogram_of(b))
    assert left.state() == right.state() == swapped.state() == whole


def test_merge_never_mutates_other():
    rng = np.random.default_rng(11)
    other = histogram_of(exact_values(rng, 50))
    before = fingerprint(other)
    histogram_of(exact_values(rng, 50)).merge(other)
    assert fingerprint(other) == before


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_bucketed_merge_order_invariant(shards):
    """A fleet-sized stream merges to the same bucket counts in any
    shard order, and its state stays as small as its value range."""
    rng = np.random.default_rng(shards)
    values = exact_values(rng, 5000)
    parts = split(rng, values, shards)
    reference = histogram_of(values)
    merged = Histogram("h")
    for index in rng.permutation(shards):
        merged.merge(histogram_of(parts[index]))
    assert fingerprint(merged) == fingerprint(reference)
    keys = bucket_keys([v for v in values if v > BUCKET_MIN])
    assert len(merged.state()["counts"]) == keys.max() - keys.min() + 1


def test_bucketed_underflow_percentiles():
    """Values at or below ``BUCKET_MIN`` (zeros included) share the
    low bucket, which reads 0 clamped into [min, max]."""
    histogram = Histogram("lat")
    tiny = [0.0, 1e-9, 1e-8] * 400
    histogram.observe_many(tiny)
    assert histogram.state()["low"] == len(tiny)
    assert histogram.state()["counts"] == []
    for p in (0.0, 50.0, 99.0, 100.0):
        assert 0.0 <= histogram.percentile(p) <= 1e-8
    # a lone large value keeps the high percentiles honest
    histogram.observe(4.0)
    assert histogram.percentile(100.0) == 4.0
    assert histogram.percentile(50.0) < BUCKET_MIN


def test_bucketed_overflow_percentiles():
    """There is no top of the grid: values far beyond any latency read
    back within the relative accuracy, and p100 is the exact max."""
    histogram = Histogram("bytes")
    histogram.observe_many([1.0] * 1100 + [3.5e12, 7.0e12])
    assert histogram.percentile(100.0) == 7.0e12
    assert histogram.percentile(99.95) == \
        pytest.approx(3.5e12, rel=RELATIVE_ACCURACY)
    assert histogram.percentile(50.0) == \
        pytest.approx(1.0, rel=RELATIVE_ACCURACY)


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
    right = a2.merge(b2.merge(c2))
    assert telemetry_fingerprint(left) == telemetry_fingerprint(right)


# ---- the sketch's accuracy contract ------------------------------------

#: Percentiles every accuracy property reads (the exported three and
#: the tails).
PERCENTILES = (0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9)


@st.composite
def positive_sets(draw):
    """A lognormal set (sigma 3: nine decades) plus drawn floats, all
    above ``BUCKET_MIN``."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    size = draw(st.integers(min_value=0, max_value=1500))
    values = np.random.default_rng(seed).lognormal(0.0, 3.0, size=size)
    values = values[values > BUCKET_MIN].tolist()
    values += draw(st.lists(st.floats(min_value=BUCKET_MIN,
                                      max_value=1e12, exclude_min=True),
                            max_size=20))
    assume(values)
    return values


@given(positive_sets(),
       st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6))
@settings(max_examples=80, deadline=None)
def test_percentiles_within_relative_accuracy(values, drawn):
    """Every percentile is within ``RELATIVE_ACCURACY`` of
    ``np.quantile(method="lower")`` -- the sample at rank
    ``floor(p / 100 * (count - 1))``."""
    histogram = Histogram("h")
    histogram.observe_many(values)
    for p in PERCENTILES + tuple(drawn):
        want = float(np.quantile(values, p / 100.0, method="lower"))
        assert abs(histogram.percentile(p) - want) <= \
            RELATIVE_ACCURACY * (1.0 + 1e-9) * want, (p, want)


@given(st.lists(st.one_of(
    st.floats(min_value=-1e3, max_value=1e12),
    st.sampled_from([0.0, -0.0, BUCKET_MIN, 2.5])), min_size=1,
    max_size=80))
@settings(max_examples=80, deadline=None)
def test_p0_and_p100_are_the_exact_min_and_max(values):
    histogram = Histogram("h")
    histogram.observe_many(values)
    assert histogram.percentile(0.0) == min(values)
    assert histogram.percentile(100.0) == max(values)


@given(positive_sets(), st.data())
@settings(max_examples=80, deadline=None)
def test_count_over_misses_by_at_most_its_bucket(values, data):
    """The interpolated share only redistributes the threshold
    bucket's own population, so ``count_over`` is within that
    bucket's count of the exact answer (the low bucket's for a
    threshold at or below ``BUCKET_MIN``), and never rises with the
    threshold."""
    values += data.draw(st.lists(st.sampled_from(
        [0.0, -2.0, BUCKET_MIN / 3, BUCKET_MIN]), max_size=10))
    histogram = Histogram("h")
    histogram.observe_many(values)
    array = np.asarray(values)
    thresholds = sorted(data.draw(st.lists(st.one_of(
        st.sampled_from(values),
        st.floats(min_value=-10.0, max_value=2e12)), max_size=12)))
    readings = []
    for threshold in thresholds:
        exact = float(np.sum(array > threshold))
        if threshold <= BUCKET_MIN:
            slack = np.sum(array <= BUCKET_MIN)
        else:
            high = array[array > BUCKET_MIN]
            slack = np.sum(bucket_keys(high) == bucket_keys(threshold))
        readings.append(histogram.count_over(threshold))
        assert abs(readings[-1] - exact) <= slack + 1e-9, threshold
    assert all(a >= b - 1e-9 for a, b in zip(readings, readings[1:]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_non_finite_observations_are_refused(bad):
    """A sketch holds finite values only: NaN and +-inf raise naming
    the instrument, through the scalar and the bulk path, and leave
    the histogram as it was."""
    for observe in (lambda h: h.observe(bad),
                    lambda h: h.observe_many([bad]),
                    lambda h: h.observe_many([4.0, bad, 5.0])):
        histogram = Histogram("lat", {"app": "mar"})
        histogram.observe_many([1.0, 2.0, 3.0])
        before = reading(histogram)
        with pytest.raises(ValueError,
                           match=re.escape('lat{app="mar"}')):
            observe(histogram)
        assert reading(histogram) == before


# ---- bulk updates == one update per sample ----------------------------
#
# The serving core buffers a cell's decisions and folds them into its
# registry with one ``observe_many`` / ``inc_many`` / ``inc(n)`` per
# instrument; the fold must leave exactly what the per-sample loop
# leaves, floats included.

#: Bucket edges ``GAMMA**k`` and one ulp either side of each: a
#: boundary value must land in the same bucket whichever path keys it.
BOUNDARY_SAMPLES = [float(v) for k in (-690, -1, 0, 1, 2, 57, 345, 1000)
                    for edge in (GAMMA ** k,)
                    for v in (np.nextafter(edge, 0.0), edge,
                              np.nextafter(edge, np.inf))]
#: Zero, negatives, repeats, the low bucket's edge, large values and
#: the bucket edges above.
EDGE_SAMPLES = [0.0, -0.0, -3.5, -3.5, BUCKET_MIN / 2, BUCKET_MIN,
                float(np.nextafter(BUCKET_MIN, 1.0)), 2.5, 2.5, 1e9,
                4e9, 1e12] + BOUNDARY_SAMPLES
SAMPLES = st.one_of(
    st.sampled_from(EDGE_SAMPLES),
    st.floats(min_value=-1e3, max_value=1e12, allow_nan=False))


@st.composite
def sample_runs(draw):
    """A float list (a seeded bulk plus a drawn tail) and a split of
    it into consecutive chunks."""
    bulk = draw(st.sampled_from([0, 3, 200, 1500]))
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
    assert reading(Histogram.from_state(other.state())
                   .merge(chunked)) == \
        reading(Histogram.from_state(other.state()).merge(looped))


def test_boundary_values_key_alike_one_by_one_and_in_bulk():
    """Every edge ``GAMMA**k`` and its neighbouring ulps land in one
    bucket whether observed alone or in an array."""
    looped = histogram_of(BOUNDARY_SAMPLES)
    bulk = Histogram("h")
    bulk.observe_many(BOUNDARY_SAMPLES)
    assert bulk.state() == looped.state()
    assert len(set(bucket_keys(
        [v for v in BOUNDARY_SAMPLES if v > BUCKET_MIN]))) > 8


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


# ---- export -> read back ---------------------------------------------


@st.composite
def registries(draw):
    """Labeled and bare counters, and histograms from empty to
    fleet-sized."""
    telemetry = Telemetry()
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        labels = draw(st.sampled_from(
            [None, {"cause": "eq8"}, {"app": "mar", "cell": "3"}]))
        telemetry.counter(f"c{index}", labels).inc(
            draw(st.floats(min_value=0.0, max_value=1e9)))
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        labels = draw(st.sampled_from([None, {"app": "hvs"}]))
        bulk = draw(st.sampled_from(
            [0, 1, 40, 1500]))
        seed = draw(st.integers(min_value=0, max_value=2 ** 16))
        values = np.random.default_rng(seed).lognormal(
            0.0, 3.0, size=bulk).tolist()
        values += draw(st.lists(SAMPLES, max_size=8))
        telemetry.histogram(f"h{index}", labels).observe_many(values)
    return telemetry


@given(registries())
@settings(max_examples=40, deadline=None)
def test_export_reads_back_the_registry(telemetry):
    with tempfile.TemporaryDirectory() as directory:
        back = read_telemetry(telemetry.export_jsonl(
            os.path.join(directory, "run.jsonl")))
    assert {key: counter.value for key, counter
            in back.counters().items()} == \
        {key: counter.value for key, counter
         in telemetry.counters().items()}
    assert {key: histogram.state() for key, histogram
            in back.histograms().items()} == \
        {key: histogram.state() for key, histogram
         in telemetry.histograms().items()}


# ---- hostile and stale states ------------------------------------------


def good_state():
    histogram = Histogram("lat", {"app": "mar"})
    histogram.observe_many([0.0, 1.5, 2.5, 40.0, 41.0])
    return histogram.state()


@pytest.mark.parametrize("edit,message", [
    (lambda s: s.update(samples=[1.5, 2.5]), "pre-sketch"),
    (lambda s: s.update(buckets=[0] * 130), "pre-sketch"),
    (lambda s: s["counts"].__setitem__(0, -1), "non-negative integers"),
    (lambda s: s["counts"].__setitem__(0, 1.5), "non-negative integers"),
    (lambda s: s["counts"].__setitem__(0, True), "non-negative integers"),
    (lambda s: s.update(counts="[1, 2]"), "non-negative integers"),
    (lambda s: s.update(low=-1), "non-negative integers"),
    (lambda s: s.update(count=4.0), "non-negative integers"),
    (lambda s: s["counts"].__setitem__(-1, 7), "!= 5"),
    (lambda s: s["counts"].pop(), "!= 5"),
    (lambda s: s.update(sum=float("nan")), "finite"),
    (lambda s: s.update(max=float("inf")), "finite"),
    (lambda s: s.pop("min"), "finite"),
], ids=["samples", "buckets", "negative", "float", "bool", "not-a-list",
        "negative-low", "float-count", "flipped-count",
        "truncated-counts", "nan-sum", "inf-max", "no-min"])
def test_from_state_refuses_what_it_cannot_hold(edit, message):
    state = good_state()
    assert Histogram.from_state(state).state() == state
    edit(state)
    with pytest.raises(ValueError, match=re.escape(
            "histogram 'lat{app=\"mar\"}': ") + ".*" + re.escape(message)):
        Histogram.from_state(state)
