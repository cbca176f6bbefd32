"""Per-user radio channel processes.

The testbed keeps phones and antennas stationary inside a Faraday cage,
yet the paper reports "moderate variations of radio channel conditions
of slice users" (Sec. 9).  We model each user's wideband SNR as a
first-order Gauss-Markov (AR(1)) process around a per-user mean drawn
from a log-distance shadowing distribution, quantised to CQI with the
standard reporting thresholds.

State is stored struct-of-arrays (one mean/SNR/CQI array per process)
and storage nests: a process's arrays are its own until its network's
:class:`ChannelBank` stacks them, and the bank's are its own until a
:class:`FleetChannelBank` stacks an engine's banks -- each level then
reads its rows *through* the one above, so the holder can move or
reshape its block without visiting what it holds.

There are two holders and two callers of the AR(1) step:
:meth:`ChannelBank.step` advances a bare network (the pi_b grid
search, the figures), :meth:`FleetChannelBank.step_worlds` advances
the worlds of a :class:`~repro.engine.batch.BatchSimulator` -- every
one of them, a one-world engine and worlds of differing user counts
included.  :class:`ChannelProcess` is the per-channel reference both
are held against: a size-``n`` ``standard_normal`` call consumes the
generator exactly like ``n`` scalar draws, so a block draw reproduces
the per-channel (and the historical per-user) streams bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.sim.phy import CQI_SNR_THRESHOLDS_DB, NUM_CQI


@dataclass
class UserChannel:
    """Snapshot of one user's channel (see :attr:`ChannelProcess.users`)."""

    mean_snr_db: float
    snr_db: float
    cqi: int


def snr_to_cqi_array(snr_db: np.ndarray) -> np.ndarray:
    """Vectorised SNR -> CQI quantisation (1..15), any shape."""
    cqi = np.searchsorted(CQI_SNR_THRESHOLDS_DB, snr_db, side="right")
    return np.clip(cqi, 1, NUM_CQI)


def _ar1_step(snr_db: np.ndarray, mean_snr_db: np.ndarray,
              innovations: np.ndarray, correlation: float,
              innovation_std_db: float, cqi_out: np.ndarray) -> None:
    """One slot of AR(1) evolution, fully in place.

    Writes the new SNR into ``snr_db`` (and the quantisation into
    ``cqi_out``); ``innovations`` is consumed as scratch.  The op
    sequence is the historical ``mean + rho * (snr - mean) + sigma *
    z`` with the identical association -- in-place outputs and
    commuted scalar factors change no bits.
    """
    rho = correlation
    sigma = innovation_std_db * np.sqrt(1.0 - rho ** 2)
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


class ChannelProcess:
    """AR(1) SNR evolution for a population of users.

    Parameters
    ----------
    num_users:
        Population size (one entry per UE).
    mean_snr_db / snr_spread_db:
        Mean and shadowing spread of the per-user average SNR.
    correlation:
        AR(1) coefficient per slot; 0.9 gives slowly-varying channels at
        the 15-minute configuration interval.
    innovation_std_db:
        Standard deviation of the AR(1) innovation.

    State (``mean_snr_db`` / ``snr_db`` / ``cqi``) lives on the process
    until a :class:`ChannelBank` takes it; from then on the three
    attributes read the process's row *through* the bank, wherever the
    bank's storage currently is.
    """

    def __init__(self, num_users: int, rng: np.random.Generator,
                 mean_snr_db: float = 18.0, snr_spread_db: float = 4.0,
                 correlation: float = 0.9,
                 innovation_std_db: float = 1.5) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if not 0.0 <= correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")
        self._rng = rng
        self.num_users = num_users
        self.correlation = correlation
        self.innovation_std_db = innovation_std_db
        # The historical scalar path drew, per user, mean then snr --
        # an interleaved stream of standard normals.  One array draw
        # consumes the generator identically; the even entries scale
        # into means, the odd ones into initial SNRs.
        z = rng.standard_normal(2 * num_users)
        mean = mean_snr_db + snr_spread_db * z[0::2]
        snr = mean + innovation_std_db * z[1::2]
        self._bank: Optional["ChannelBank"] = None
        self._row = 0
        self._state = {"mean_snr_db": mean, "snr_db": snr,
                       "cqi": snr_to_cqi_array(snr)}

    def _read(self, field: str) -> np.ndarray:
        if self._bank is None:
            return self._state[field]
        return getattr(self._bank, field)[self._row]

    @property
    def mean_snr_db(self) -> np.ndarray:
        return self._read("mean_snr_db")

    @property
    def snr_db(self) -> np.ndarray:
        return self._read("snr_db")

    @property
    def cqi(self) -> np.ndarray:
        return self._read("cqi")

    @property
    def users(self) -> List[UserChannel]:
        """Per-user snapshot views (read-only; state lives in arrays)."""
        mean, snr, cqi = self.mean_snr_db, self.snr_db, self.cqi
        return [UserChannel(mean_snr_db=float(mean[i]),
                            snr_db=float(snr[i]), cqi=int(cqi[i]))
                for i in range(self.num_users)]

    def step(self) -> None:
        """Advance every user's channel by one configuration slot, in
        place, wherever the state is stored."""
        _ar1_step(self.snr_db, self.mean_snr_db,
                  self._rng.standard_normal(self.num_users),
                  self.correlation, self.innovation_std_db, self.cqi)

    @property
    def cqis(self) -> np.ndarray:
        return np.asarray(self.cqi, dtype=int)

    def average_cqi(self) -> float:
        """Mean reported CQI -- the ``h_{t-1}`` state feature."""
        return float(self.cqis.mean())

    def normalized_quality(self) -> float:
        """Average CQI scaled to [0, 1] for state vectors."""
        return self.average_cqi() / NUM_CQI


class ChannelBank:
    """One network's channels as stacked ``(S, U)`` state arrays.

    Building a bank moves every :class:`ChannelProcess`'s state into
    rows of three stacked arrays (the processes read their rows through
    the bank from then on), after which :meth:`step` advances the whole
    population with a handful of array ops and **one**
    ``standard_normal`` block -- which consumes the shared generator
    exactly like the per-channel size-``U`` draws in slice order
    (``tests/test_sim_phy_channel.py`` pins the block against S
    sequential :meth:`ChannelProcess.step` calls).

    The population is uniform by construction: one network builds all
    its processes with one user count, one generator and one set of
    AR(1) parameters, and builds a new bank on first use after its
    slice set changes.  A network without slices has a zero-row bank.

    The stacked arrays live on the bank until a
    :class:`FleetChannelBank` takes them; ``mean_snr_db`` / ``snr_db``
    / ``cqi`` then read the bank's rows (and its ``U`` lanes) of the
    fleet block, so the fleet can move or reshape its block without
    touching the banks.
    """

    def __init__(self, channels: Sequence[ChannelProcess],
                 num_users: int) -> None:
        self.channels = list(channels)
        # The population's AR(1) parameters (a zero-row bank steps
        # nothing, whatever they are).
        self.correlation, self.innovation_std_db = next(
            ((channel.correlation, channel.innovation_std_db)
             for channel in self.channels), (0.0, 0.0))
        shape = (len(self.channels), num_users)
        self._z = np.empty(shape)
        self._margin = np.empty(shape)
        self._home: Optional["FleetChannelBank"] = None
        self._index = 0
        self._state = {"mean_snr_db": np.empty(shape),
                       "snr_db": np.empty(shape),
                       "cqi": np.empty(shape, dtype=np.intp)}
        for row, channel in enumerate(self.channels):
            for field, block in self._state.items():
                block[row] = getattr(channel, field)
            channel._bank, channel._row = self, row
            channel._state = None

    def _read(self, field: str) -> np.ndarray:
        home = self._home
        if home is None:
            return self._state[field]
        return getattr(home, field)[
            home.starts[self._index]:home.starts[self._index + 1],
            :self._z.shape[1]]

    @property
    def mean_snr_db(self) -> np.ndarray:
        return self._read("mean_snr_db")

    @property
    def snr_db(self) -> np.ndarray:
        return self._read("snr_db")

    @property
    def cqi(self) -> np.ndarray:
        return self._read("cqi")

    def release(self) -> None:
        """Take the state back from the fleet block (as copies): the
        bank, and any channel still reading through it, keeps what it
        last saw after the fleet reuses the rows."""
        self._state = {field: getattr(self, field).copy()
                       for field in _PADDING}
        self._home = None

    def step(self, rng: np.random.Generator) -> None:
        """Advance every channel by one slot (one block draw)."""
        rng.standard_normal(out=self._z)
        _ar1_step(self.snr_db, self.mean_snr_db, self._z,
                  self.correlation, self.innovation_std_db, self.cqi)

    def read(self):
        """``(cqi, margin_db)``, both ``(S, U)`` in slice order; the
        margin buffer is this bank's until the next call."""
        np.subtract(self.snr_db, self.mean_snr_db, out=self._margin)
        return self.cqi, self._margin


class FleetChannelBank:
    """Many networks' channel banks stacked into one ``(R, Umax)``
    block: the one channel store the world stepper advances.

    Every :class:`~repro.engine.batch.BatchSimulator` owns one, a
    one-world engine included.  World ``b``'s bank sits in rows
    ``starts[b]:starts[b + 1]`` and reads them through this block (and
    its channels through the bank), so a slot is one innovation draw
    per stepped world plus **one** fused AR(1) update, whether every
    world steps or any subset does.  A world with fewer than ``Umax``
    users per slice leaves the lanes past its own count as padding:
    SNR pinned at its mean, never drawn into, so the fused update
    keeps them at ``cqi = 1``, ``margin = 0`` -- lanes the kernels'
    ``user_mask`` never reads.

    RNG parity is preserved exactly: each world's innovations are
    drawn from *its own* generator as one ``(S, U)`` block, in world
    order -- the identical stream :meth:`ChannelBank.step` and the
    per-channel :meth:`ChannelProcess.step` loop consume; only the
    stepped worlds' generators advance.

    The AR(1) parameters are the first bank's: every network builds
    its channels with the same ones.  A world whose bank changed
    (slice churn) or was taken by another fleet is spliced in by
    :meth:`replace`; nothing else moves.
    """

    def __init__(self, banks: Sequence[ChannelBank],
                 rngs: Sequence[np.random.Generator]) -> None:
        self.banks = list(banks)
        self.rngs = list(rngs)
        self.correlation = banks[0].correlation
        self.innovation_std_db = banks[0].innovation_std_db
        #: users per slice of each world; the block is as wide as the
        #: widest
        self.users = [bank.snr_db.shape[1] for bank in banks]
        self._width = max(self.users)
        self.starts = [0]
        for bank in banks:
            self.starts.append(self.starts[-1] + bank.snr_db.shape[0])
        for field in _PADDING:
            setattr(self, field, np.concatenate(
                [self._padded(bank, field) for bank in banks]))
        self._lay_out_scratch()
        for index, bank in enumerate(banks):
            self._take(index, bank)

    def _padded(self, bank: ChannelBank, field: str) -> np.ndarray:
        """The bank's ``field`` as ``(S, Umax)`` block rows."""
        state = getattr(bank, field)
        rows = np.full((state.shape[0], self._width), _PADDING[field],
                       dtype=state.dtype)
        rows[:, :state.shape[1]] = state
        return rows

    def _lay_out_scratch(self) -> None:
        # Zeros: the padding lanes' innovations, which no draw writes.
        self._z = np.zeros_like(self.snr_db)
        self._margin = np.empty_like(self.snr_db)

    def _take(self, index: int, bank: ChannelBank) -> None:
        self.banks[index] = bank
        bank._home, bank._index = self, index
        bank._state = None

    def replace(self, index: int, bank: ChannelBank) -> None:
        """Splice world ``index``'s current bank into the block.

        Called when churn rebuilt the world's bank or another fleet
        took it: the bank this block held for the world gets its rows
        back (:meth:`ChannelBank.release`), the new bank's state
        replaces them, and later worlds' row ranges shift by the size
        difference.
        """
        old = self.banks[index]
        if old is not bank and old._home is self:
            old.release()
        lo, hi = self.starts[index], self.starts[index + 1]
        for field in _PADDING:
            block = getattr(self, field)
            setattr(self, field, np.concatenate(
                [block[:lo], self._padded(bank, field), block[hi:]]))
        self.users[index] = bank.snr_db.shape[1]
        moved = bank.snr_db.shape[0] - (hi - lo)
        self.starts[index + 1:] = [
            start + moved for start in self.starts[index + 1:]]
        self._lay_out_scratch()
        self._take(index, bank)

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
            if users == width:
                self.rngs[b].standard_normal(out=draw)
            else:
                draw[:, :users] = self.rngs[b].standard_normal(
                    (len(draw), users))
        if rows is None:
            _ar1_step(self.snr_db, self.mean_snr_db, z,
                      self.correlation, self.innovation_std_db,
                      self.cqi)
            np.subtract(self.snr_db, self.mean_snr_db,
                        out=self._margin)
            return self.cqi, self._margin
        snr = self.snr_db[rows]
        mean = self.mean_snr_db[rows]
        cqi = np.empty(snr.shape, dtype=np.intp)
        _ar1_step(snr, mean, z[rows], self.correlation,
                  self.innovation_std_db, cqi)
        self.snr_db[rows] = snr
        self.cqi[rows] = cqi
        np.subtract(snr, mean, out=mean)
        return cqi, mean
