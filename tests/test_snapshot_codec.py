"""Tests: the one array record (``runtime/serialization.py``) and the
policy store's handling of torn, corrupt and outdated snapshot files.

An array is written as ``{"__repro__": "ndarray", "dtype": "<f8",
"shape": [...], "b64": ...}``; decoding must give back the same bytes,
and anything malformed is a :class:`ValueError` that says what is
wrong -- which the result cache reads as a miss and the policy store
re-raises naming the snapshot and its file.
"""

import json
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rule_based import RuleBasedPolicy
from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments.harness import build_onslicing
from repro.runtime.cache import MISSING, ResultCache
from repro.runtime.serialization import (
    decode_array,
    encode_array,
    from_jsonable,
    to_jsonable,
)
from repro.serve import (
    DecisionRequest,
    PolicyStore,
    SlicingService,
    snapshot_onslicing,
)


def roundtrip(arr: np.ndarray) -> np.ndarray:
    """Encode, through JSON text, and decode."""
    return decode_array(json.loads(json.dumps(encode_array(arr))))


def le_bytes(arr: np.ndarray) -> np.ndarray:
    """The little-endian C-order bytes of ``arr`` as uint8."""
    le = arr.astype(arr.dtype.newbyteorder("<"))
    return np.ascontiguousarray(le).reshape(-1).view(np.uint8)


# ---- the round-trip property -----------------------------------------


DTYPES = (np.float64, np.float32, np.int64, np.bool_)


def _elements(dtype):
    if dtype in (np.float64, np.float32):
        return st.floats(allow_nan=True, allow_infinity=True,
                         allow_subnormal=True,
                         width=np.dtype(dtype).itemsize * 8)
    return None


@st.composite
def arrays_in_layouts(draw):
    """C-order arrays of every dtype and rank 0-3 (sides may be 0),
    then one of: as is, Fortran order, a strided view, big-endian."""
    dtype = draw(st.sampled_from(DTYPES))
    arr = draw(hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=5),
        elements=_elements(dtype)))
    layout = draw(st.sampled_from(("C", "F", "strided", "big-endian")))
    if layout == "F":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and arr.ndim:
        arr = arr[::2]
    elif layout == "big-endian":
        arr = arr.astype(arr.dtype.newbyteorder(">"))
    return arr


class TestRoundTrip:
    @given(arrays_in_layouts())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_shape_and_writable(self, arr):
        back = roundtrip(arr)
        assert back.shape == arr.shape
        assert back.dtype == arr.dtype.newbyteorder("<")
        assert back.dtype.byteorder in "<|="
        assert back.flags.writeable and back.flags.owndata
        assert np.array_equal(le_bytes(back), le_bytes(arr))

    def test_special_float_values_exact(self):
        nan_payload = np.array([0x7FF8_0000_0000_0001],
                               dtype=np.uint64).view(np.float64)[0]
        values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan,
                           nan_payload, 5e-324, -2.2e-308,
                           np.nextafter(1.0, 2.0)])
        for arr in (values, values.astype(">f8"),
                    values.astype(np.float32)):
            back = roundtrip(arr)
            assert np.array_equal(le_bytes(back), le_bytes(arr))
        assert np.signbit(roundtrip(values)[0])

    def test_big_endian_decodes_to_little_endian_equal_values(self):
        arr = np.arange(6, dtype=">f8").reshape(2, 3) / 7.0
        back = roundtrip(arr)
        assert back.dtype.str == "<f8"
        np.testing.assert_array_equal(back, arr)

    def test_record_shape(self):
        record = encode_array(np.zeros((2, 3)))
        assert set(record) == {"__repro__", "dtype", "shape", "b64"}
        assert (record["dtype"], record["shape"]) == ("<f8", [2, 3])

    def test_rule_based_policy_uses_the_array_record(self):
        policy = RuleBasedPolicy("MAR", "mar", [0.5, 1.0],
                                 [np.full(10, 0.1), np.full(10, 0.9)])
        encoded = to_jsonable(policy)
        for key in ("bin_edges", "actions"):
            assert encoded[key]["__repro__"] == "ndarray"
        assert encoded["actions"]["shape"] == [2, 10]
        back = from_jsonable(json.loads(json.dumps(encoded)))
        np.testing.assert_array_equal(back.actions, policy.actions)
        np.testing.assert_array_equal(back.bin_edges, policy.bin_edges)

    def test_object_arrays_do_not_encode(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_array(np.array([object()]))


# ---- malformed records -----------------------------------------------


def _good():
    return encode_array(np.arange(3, dtype=np.float64))


def _edit(**changes):
    record = _good()
    for key, value in changes.items():
        if value is _DROP:
            del record[key]
        else:
            record[key] = value
    return record


_DROP = object()

MALFORMED = {
    "missing b64": (_edit(b64=_DROP), r"missing \['b64'\]"),
    "missing shape": (_edit(shape=_DROP), r"missing \['shape'\]"),
    "old float list": ({"__repro__": "ndarray", "dtype": "float64",
                        "data": [1.0, 2.0]}, "missing"),
    "unknown dtype": (_edit(dtype="<f3"), "unknown or unsupported"),
    "garbage dtype": (_edit(dtype="nope"), "unknown or unsupported"),
    "non-string dtype": (_edit(dtype=8), "unknown or unsupported"),
    "object dtype": (_edit(dtype="|O"), "unknown or unsupported"),
    "bare object dtype": (_edit(dtype="O"), "unknown or unsupported"),
    "big-endian dtype": (_edit(dtype=">f8"), "little-endian"),
    "non-canonical dtype": (_edit(dtype="float64"), "little-endian"),
    "negative shape": (_edit(shape=[-3]), "non-negative integers"),
    "float shape": (_edit(shape=[3.0]), "non-negative integers"),
    "bool shape": (_edit(shape=[True, 3]), "non-negative integers"),
    "scalar shape": (_edit(shape=3), "non-negative integers"),
    "non-base64 text": (_edit(b64="!!!!" + _good()["b64"]),
                        "not base64"),
    "bad padding": (_edit(b64=_good()["b64"][:-1]), "not base64"),
    "non-string b64": (_edit(b64=[1, 2]), "not base64"),
    "short bytes": (_edit(shape=[4]), "holds 24 bytes"),
    "long bytes": (_edit(shape=[2]), "needs 16"),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_value_error_says_what_is_wrong(self, case):
        record, message = MALFORMED[case]
        with pytest.raises(ValueError, match=message):
            from_jsonable({"weights": record})

    def test_rule_based_policy_with_a_list_table(self):
        encoded = to_jsonable(RuleBasedPolicy(
            "MAR", "mar", [1.0], [np.full(10, 0.5)]))
        encoded["bin_edges"] = [1.0]
        with pytest.raises(ValueError, match="is a list"):
            from_jsonable(encoded)


class TestResultCacheCorruptArray:
    @pytest.mark.parametrize("case", ["old float list", "missing b64",
                                      "short bytes", "non-base64 text"])
    def test_corrupt_array_record_is_a_miss(self, tmp_path, case):
        cache = ResultCache(str(tmp_path))
        cache.put("good", {"weights": np.arange(3.0)})
        entry = json.loads((tmp_path / "good.json").read_text())
        entry["weights"] = MALFORMED[case][0]
        (tmp_path / "bad.json").write_text(json.dumps(entry))
        fresh = ResultCache(str(tmp_path))
        assert fresh.fetch("bad") is MISSING
        np.testing.assert_array_equal(fresh.fetch("good")["weights"],
                                      np.arange(3.0))

    def test_record_missing_a_field_is_a_miss(self, tmp_path):
        entry = to_jsonable(RuleBasedPolicy(
            "MAR", "mar", [1.0], [np.full(10, 0.5)]))
        del entry["app"]
        (tmp_path / "bad.json").write_text(json.dumps(entry))
        assert ResultCache(str(tmp_path)).fetch("bad") is MISSING


# ---- the policy store on torn / corrupt / old files ------------------


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig(
        traffic=TrafficConfig(slots_per_episode=10), seed=5)


@pytest.fixture(scope="module")
def snapshot(tiny_cfg):
    bundle = build_onslicing(tiny_cfg, offline_episodes=1,
                             exploration_episodes=1, seed=5)
    return snapshot_onslicing("codec-test", bundle, seed=5)


@pytest.fixture
def saved(tmp_path, snapshot):
    store = PolicyStore(str(tmp_path))
    stamped = store.save(snapshot)
    return store, stamped, store._path(stamped.name, stamped.version)


def _names_the_file(saved):
    """``pytest.raises`` match for a message naming ref and path."""
    _, stamped, path = saved
    return f"{re.escape(stamped.ref)}.*{re.escape(path)}"


class TestStoreHardening:
    def test_truncated_file_names_the_file(self, saved):
        store, stamped, path = saved
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:len(text) // 2])
        with pytest.raises(ValueError, match=_names_the_file(saved)):
            store.load(stamped.ref)

    @pytest.mark.parametrize("replacement, message",
                             [("valid", "corrupt"),
                              ("!", "not base64")])
    def test_flipped_base64_character(self, saved, replacement,
                                      message):
        store, stamped, path = saved
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        record = payload["policies"]["MAR"]["model"][
            next(iter(payload["policies"]["MAR"]["model"]))]
        text = record["b64"]
        middle = len(text) // 2
        if replacement == "valid":
            replacement = "A" if text[middle] != "A" else "B"
        record["b64"] = text[:middle] + replacement + text[middle + 1:]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=_names_the_file(saved)) \
                as info:
            store.load(stamped.ref)
        assert message in str(info.value)

    def test_format_1_file_is_refused(self, saved):
        store, stamped, path = saved
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["format"] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=_names_the_file(saved)) \
                as info:
            store.load(stamped.ref)
        assert "format 1" in str(info.value)
        assert "re-save" in str(info.value)

    def test_missing_field_names_the_file(self, saved):
        store, stamped, path = saved
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        del payload["config"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=_names_the_file(saved)) \
                as info:
            store.load(stamped.ref)
        assert "'config'" in str(info.value)

    def test_posterior_sample_count_in_the_config_is_refused(self, saved):
        """A snapshot written while pi_phi's posterior was sampled
        carries ``EstimatorConfig.num_posterior_samples``; the field is
        gone, so the file is refused naming the file and the field."""
        store, stamped, path = saved
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)

        def estimator_configs(node):
            if isinstance(node, dict):
                if node.get("type") == "EstimatorConfig":
                    yield node["fields"]
                for value in node.values():
                    yield from estimator_configs(value)
            elif isinstance(node, list):
                for value in node:
                    yield from estimator_configs(value)

        found = list(estimator_configs(payload["config"]))
        assert len(found) == 1
        found[0]["num_posterior_samples"] = 16
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=_names_the_file(saved)) \
                as info:
            store.load(stamped.ref)
        assert "num_posterior_samples" in str(info.value)

    def test_no_float_lists_in_the_file(self, saved):
        """Every array in the file is a binary record: no float
        lists survive anywhere in the payload."""
        _, _, path = saved
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert '"data"' not in text
        assert json.loads(text)["format"] == 2


# ---- what is served is what was saved --------------------------------


def test_loaded_snapshot_serves_equal_decisions(saved, snapshot):
    store, stamped, _ = saved
    loaded = store.load(stamped.ref)
    assert loaded.digest == snapshot.digest
    rng = np.random.default_rng(3)
    in_memory = SlicingService(snapshot, rng_seed=0)
    from_disk = SlicingService(loaded, rng_seed=0)
    served = []
    for slot in range(12):
        # cumulative cost climbs past the budget: pi_phi's posterior
        # (loaded weights) decides when Eq. 8 hands a slice to pi_b
        states = rng.uniform(0.0, 1.0, size=(3, 9))
        states[:, 7] = 0.05
        states[:, 8] = 0.15 * slot
        requests = [DecisionRequest(name, state) for name, state
                    in zip(in_memory.slice_names, states)]
        a = in_memory.decide(requests)
        b = from_disk.decide(requests)
        assert a.keys() == b.keys()
        for name in a:
            assert (a[name].action == b[name].action).all()
            assert a[name].fallback == b[name].fallback
            assert a[name].policy == b[name].policy
            served.append(a[name].fallback)
    assert any(served) and not all(served)
