"""Property test: the one channel store under churn and shared worlds.

Networks hold their slices' ``(S, U)`` channel arrays until an engine's
:class:`~repro.sim.channel.FleetChannelBank` takes them; churn takes
them back, and a world that another block stepped is spliced in again
(``BatchSimulator``'s rule: re-adopt a network whose ``_home`` is not
the stepping block).  Random sequences of slice attach / detach --
down to an empty network -- and steps inside two multi-world blocks
and a per-network one-world block must leave every slice's channel
rows and every network's generator where the per-channel oracle
(``scalar_oracle.ChannelProcess``), replayed op by op, leaves them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_probe import make_network
from repro.config import mar_slice_spec
from repro.sim.channel import FleetChannelBank
from scalar_oracle import ChannelProcess

_OPS = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2)),
    st.tuples(st.just("remove"), st.integers(0, 2), st.integers(0, 4)),
    st.tuples(st.sampled_from(["A", "B"]), st.integers(1, 7)),
    st.tuples(st.just("solo"), st.integers(0, 2)),
)


def _step(block, worlds):
    """One engine slot's channel stage over ``worlds`` of ``block``:
    re-adopt what the block does not hold, then one fused update over
    the stepped rows (in place when every world steps)."""
    for b in worlds:
        if block.networks[b]._home is not block:
            block.replace(b, block.networks[b])
    rows = None if len(worlds) == len(block.networks) else \
        np.concatenate([np.arange(block.starts[b], block.starts[b + 1])
                        for b in worlds]).astype(np.intp)
    return block.step_worlds(worlds, rows)


@given(worlds=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)),
                       min_size=1, max_size=3),
       ops=st.lists(_OPS, max_size=25))
@settings(max_examples=80, deadline=None)
def test_churn_and_engines_taking_turns_match_the_oracle(worlds, ops):
    names = iter(f"S{i}" for i in range(10 ** 6))
    nets, oracles, rngs = [], [], []
    for seed, (slices, users) in enumerate(worlds):
        specs = [mar_slice_spec(next(names)) for _ in range(slices)]
        nets.append(make_network(specs, seed=seed,
                                 users_per_slice=users))
        rngs.append(np.random.default_rng(seed))
        oracles.append([ChannelProcess(users, rngs[-1])
                        for _ in specs])
    count = len(nets)
    engine_a = FleetChannelBank(nets)
    engine_b = FleetChannelBank(nets[::-1])     # world b is nets[-1-b]
    solo = [FleetChannelBank([net]) for net in nets]

    for op in ops:
        kind, index = op[0], op[1] % count
        if kind == "add":
            nets[index].add_slice(mar_slice_spec(next(names)))
            oracles[index].append(ChannelProcess(
                nets[index].cfg.users_per_slice, rngs[index]))
        elif kind == "remove":
            if oracles[index]:
                row = op[2] % len(oracles[index])
                nets[index].remove_slice(nets[index].slice_names[row])
                del oracles[index][row]
        else:
            if kind == "solo":
                block, worlds_stepped = solo[index], [0]
                stepped = [index]
            else:
                block = engine_a if kind == "A" else engine_b
                worlds_stepped = [b for b in range(count)
                                  if op[1] >> b & 1] or [0]
                stepped = [b if kind == "A" else count - 1 - b
                           for b in worlds_stepped]
            cqi, margin = _step(block, worlds_stepped)
            row = 0
            for net in stepped:
                users = nets[net].cfg.users_per_slice
                for channel in oracles[net]:
                    channel.step()
                    np.testing.assert_array_equal(
                        cqi[row, :users], channel.cqi)
                    np.testing.assert_array_equal(
                        margin[row, :users],
                        channel.snr_db - channel.mean_snr_db)
                    row += 1
            assert row == len(cqi)
        for net, oracle, rng in zip(nets, oracles, rngs):
            shape = (len(oracle), net.cfg.users_per_slice)
            assert net.mean_snr_db.shape == net.snr_db.shape \
                == net.cqi.shape == shape
            for row, channel in enumerate(oracle):
                np.testing.assert_array_equal(net.mean_snr_db[row],
                                              channel.mean_snr_db)
                np.testing.assert_array_equal(net.snr_db[row],
                                              channel.snr_db)
                np.testing.assert_array_equal(net.cqi[row], channel.cqi)
            assert net._rng.bit_generator.state == rng.bit_generator.state
