"""Per-user radio channel state and its one stepper.

The testbed keeps phones and antennas stationary inside a Faraday cage,
yet the paper reports "moderate variations of radio channel conditions
of slice users" (Sec. 9).  We model each user's wideband SNR as a
first-order Gauss-Markov (AR(1)) process around a per-user mean drawn
from a log-distance shadowing distribution, quantised to CQI with the
standard reporting thresholds.

State is stored struct-of-arrays at one level: an
:class:`~repro.sim.network.EndToEndNetwork` holds its slices' ``(S,
U)`` mean / SNR / CQI arrays, in slice order, until an engine's
:class:`FleetChannelBank` takes them; from then on the network reads
its rows (and its ``U`` lanes) *through* the block, so the block can
move or reshape its storage without visiting the networks.

There is one AR(1) stepper, :meth:`FleetChannelBank.step_worlds`: it
advances the worlds of a :class:`~repro.engine.batch.BatchSimulator`
-- a one-world engine and worlds of differing user counts included --
and the pi_b grid search's one-network testbed, through a one-world
block.  It is held against a test-only per-channel reference
(``tests/scalar_oracle.py``): a size-``n``
``standard_normal`` call consumes the generator exactly like ``n``
scalar draws, so a block draw reproduces the per-channel (and the
historical per-user) streams bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sim.phy import CQI_SNR_THRESHOLDS_DB, NUM_CQI

#: Mean and shadowing spread (dB) of the per-user average SNR.
MEAN_SNR_DB = 18.0
SNR_SPREAD_DB = 4.0
#: AR(1) coefficient per slot: 0.9 gives slowly-varying channels at the
#: 15-minute configuration interval.
CORRELATION = 0.9
#: Standard deviation (dB) of the AR(1) innovation.
INNOVATION_STD_DB = 1.5


def snr_to_cqi_array(snr_db: np.ndarray) -> np.ndarray:
    """Vectorised SNR -> CQI quantisation (1..15), any shape."""
    cqi = np.searchsorted(CQI_SNR_THRESHOLDS_DB, snr_db, side="right")
    return np.clip(cqi, 1, NUM_CQI)


def draw_channels(num_slices: int, num_users: int,
                  rng: np.random.Generator
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Fresh ``(mean_snr_db, snr_db)``, both ``(num_slices,
    num_users)``, for slices attached in row order.

    The historical scalar path drew, per user, mean then snr -- an
    interleaved stream of standard normals, slice after slice.  One
    array draw consumes the generator identically; the even entries
    of a row scale into means, the odd ones into initial SNRs.
    """
    z = rng.standard_normal((num_slices, 2 * num_users))
    mean = MEAN_SNR_DB + SNR_SPREAD_DB * z[:, 0::2]
    snr = mean + INNOVATION_STD_DB * z[:, 1::2]
    return mean, snr


def _ar1_step(snr_db: np.ndarray, mean_snr_db: np.ndarray,
              innovations: np.ndarray, cqi_out: np.ndarray) -> None:
    """One slot of AR(1) evolution, fully in place.

    Writes the new SNR into ``snr_db`` (and the quantisation into
    ``cqi_out``); ``innovations`` is consumed as scratch.  The op
    sequence is the historical ``mean + rho * (snr - mean) + sigma *
    z`` with the identical association -- in-place outputs and
    commuted scalar factors change no bits.
    """
    rho = CORRELATION
    sigma = INNOVATION_STD_DB * np.sqrt(1.0 - rho ** 2)
    np.subtract(snr_db, mean_snr_db, out=snr_db)
    np.multiply(snr_db, rho, out=snr_db)
    np.add(snr_db, mean_snr_db, out=snr_db)
    np.multiply(innovations, sigma, out=innovations)
    np.add(snr_db, innovations, out=snr_db)
    np.clip(np.searchsorted(CQI_SNR_THRESHOLDS_DB, snr_db,
                            side="right"),
            1, NUM_CQI, out=cqi_out)


#: The three per-user state arrays of a channel population, and what
#: each holds in a fleet block's padding lanes: SNR pinned at a mean on
#: the lowest CQI threshold.
_PADDING = {"mean_snr_db": CQI_SNR_THRESHOLDS_DB[0],
            "snr_db": CQI_SNR_THRESHOLDS_DB[0], "cqi": 1}


class FleetChannelBank:
    """Many networks' channel state stacked into one ``(R, Umax)``
    block: the one channel store the world stepper advances.

    Every :class:`~repro.engine.batch.BatchSimulator` owns one, a
    one-world engine included.  World ``b``'s network sits in rows
    ``starts[b]:starts[b + 1]`` and reads them through this block, so
    a slot is one innovation draw per stepped world plus **one** fused
    AR(1) update, whether every world steps or any subset does.  A
    world with fewer than ``Umax`` users per slice leaves the lanes
    past its own count as padding: SNR pinned at its mean, never drawn
    into, so the fused update keeps them at ``cqi = 1``, ``margin =
    0`` -- lanes the kernels' ``user_mask`` never reads.

    RNG parity is preserved exactly: each world's innovations are
    drawn from *its network's own* generator as one ``(S, U)`` block,
    in world order -- the identical stream the per-channel loop
    consumes; only the stepped worlds' generators advance.

    A world whose network churned (it took its state back) or was
    taken by another block is spliced in by :meth:`replace`; nothing
    else moves.
    """

    def __init__(self, networks: Sequence) -> None:
        self.networks = list(networks)
        #: users per slice of each world; the block is as wide as the
        #: widest
        self.users = [net.cfg.users_per_slice for net in networks]
        self._width = max(self.users)
        self.starts = [0]
        for net in networks:
            self.starts.append(self.starts[-1] + len(net.slices))
        for field in _PADDING:
            setattr(self, field, np.concatenate(
                [self._padded(net, field) for net in networks]))
        self._lay_out_scratch()
        for index, net in enumerate(networks):
            self._take(index, net)

    def _padded(self, network, field: str) -> np.ndarray:
        """The network's ``field`` as ``(S, Umax)`` block rows."""
        state = getattr(network, field)
        rows = np.full((state.shape[0], self._width), _PADDING[field],
                       dtype=state.dtype)
        rows[:, :state.shape[1]] = state
        return rows

    def _lay_out_scratch(self) -> None:
        # Zeros: the padding lanes' innovations, which no draw writes.
        self._z = np.zeros_like(self.snr_db)
        self._margin = np.empty_like(self.snr_db)

    def _take(self, index: int, network) -> None:
        self.networks[index] = network
        network._home, network._index = self, index
        network._state = None

    def replace(self, index: int, network) -> None:
        """Splice world ``index``'s network into the block.

        Called when the network churned (and took its state back) or
        another block took it: its current state replaces the world's
        rows, and later worlds' row ranges shift by the size
        difference.
        """
        lo, hi = self.starts[index], self.starts[index + 1]
        for field in _PADDING:
            block = getattr(self, field)
            setattr(self, field, np.concatenate(
                [block[:lo], self._padded(network, field), block[hi:]]))
        self.users[index] = network.cfg.users_per_slice
        moved = len(network.slices) - (hi - lo)
        self.starts[index + 1:] = [
            start + moved for start in self.starts[index + 1:]]
        self._lay_out_scratch()
        self._take(index, network)

    def step_worlds(self, worlds: Sequence[int],
                    rows: Optional[np.ndarray] = None):
        """Advance the given worlds' channels by one slot and return
        their ``(cqi, margin_db)`` rows, world-major, ``Umax`` wide.

        ``rows`` are the block rows of ``worlds`` (``None``: every
        world steps and the update runs on the block in place);
        either way it is one fused AR(1) update.  The returned arrays
        are this block's until the next call.
        """
        z, starts, width = self._z, self.starts, self._width
        for b in worlds:
            draw = z[starts[b]:starts[b + 1]]
            users = self.users[b]
            rng = self.networks[b]._rng
            if users == width:
                rng.standard_normal(out=draw)
            else:
                draw[:, :users] = rng.standard_normal((len(draw), users))
        if rows is None:
            _ar1_step(self.snr_db, self.mean_snr_db, z, self.cqi)
            np.subtract(self.snr_db, self.mean_snr_db,
                        out=self._margin)
            return self.cqi, self._margin
        snr = self.snr_db[rows]
        mean = self.mean_snr_db[rows]
        cqi = np.empty(snr.shape, dtype=np.intp)
        _ar1_step(snr, mean, z[rows], cqi)
        self.snr_db[rows] = snr
        self.cqi[rows] = cqi
        np.subtract(snr, mean, out=mean)
        return cqi, mean
