"""Per-user radio channel processes.

The testbed keeps phones and antennas stationary inside a Faraday cage,
yet the paper reports "moderate variations of radio channel conditions
of slice users" (Sec. 9).  We model each user's wideband SNR as a
first-order Gauss-Markov (AR(1)) process around a per-user mean drawn
from a log-distance shadowing distribution, quantised to CQI with the
standard reporting thresholds.

State is stored struct-of-arrays (one mean/SNR/CQI array per process)
so the batched engine (:mod:`repro.engine`) can advance and read whole
populations with array ops, and storage nests: a process's arrays are
its own until a :class:`ChannelBank` stacks its network's processes,
and the bank's are its own until a :class:`FleetChannelBank` stacks a
batch's banks -- each level then reads its rows *through* the one
above, so the holder can move or reshape its block without visiting
what it holds.  :attr:`ChannelProcess.users` remains as a per-user
snapshot view for diagnostic callers.  The RNG consumption is
bit-compatible with the historical per-user scalar draws: a size-``n``
``standard_normal`` call consumes the generator exactly like ``n``
scalar draws, so seeds reproduce the same channels as before the
struct-of-arrays refactor.
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


#: The three per-user state arrays of a channel population.
_STATE_FIELDS = ("mean_snr_db", "snr_db", "cqi")


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
        """Advance every user's channel by one configuration slot."""
        self.advance(self._rng.standard_normal(self.num_users))

    def advance(self, innovations: np.ndarray) -> None:
        """Apply one slot of AR(1) evolution from given standard-normal
        innovations (the batched engine pre-draws these per world so
        the per-world stream matches the scalar engine exactly).

        Updates state in place, wherever it is stored, and consumes
        ``innovations`` as scratch.
        """
        innovations = np.asarray(innovations, dtype=np.float64)
        _ar1_step(self.snr_db, self.mean_snr_db, innovations,
                  self.correlation, self.innovation_std_db, self.cqi)

    @property
    def cqis(self) -> np.ndarray:
        return np.asarray(self.cqi, dtype=int)

    @property
    def snrs_db(self) -> np.ndarray:
        return np.asarray(self.snr_db)

    @property
    def margins_db(self) -> np.ndarray:
        """Per-user channel margin (current SNR minus per-user mean)."""
        return self.snr_db - self.mean_snr_db

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
    exactly like the historical per-channel size-``U`` draws in slice
    order (the block/sequential stream equivalence is pinned by
    ``tests/test_engine.py``).  This is what makes channel stepping
    O(1) Python work per network per slot instead of O(slices).

    The stacked arrays live on the bank until a
    :class:`FleetChannelBank` takes them; ``mean_snr_db`` / ``snr_db``
    / ``cqi`` then read the bank's rows of the fleet block, so the
    fleet can move or reshape its block without touching the banks.

    Built by :meth:`adopt`, which returns ``None`` (no bank, callers
    keep the per-channel loop) when the population is not uniform:
    differing user counts, AR(1) parameters, or generators.
    """

    def __init__(self, channels: Sequence[ChannelProcess]) -> None:
        first = channels[0]
        self.channels = list(channels)
        self.correlation = first.correlation
        self.innovation_std_db = first.innovation_std_db
        self._z = np.empty((len(channels), first.num_users))
        self._home: Optional["FleetChannelBank"] = None
        self._index = 0
        self._state = {field: np.stack([getattr(channel, field)
                                        for channel in channels])
                       for field in _STATE_FIELDS}
        for row, channel in enumerate(channels):
            channel._bank, channel._row = self, row
            channel._state = None

    def _read(self, field: str) -> np.ndarray:
        home = self._home
        if home is None:
            return self._state[field]
        return getattr(home, field)[home.starts[self._index]:
                                    home.starts[self._index + 1]]

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
                       for field in _STATE_FIELDS}
        self._home = None

    @classmethod
    def adopt(cls, channels: Sequence[ChannelProcess]
              ) -> Optional["ChannelBank"]:
        """Stack ``channels`` into a bank, or ``None`` if non-uniform."""
        channels = list(channels)
        if not channels:
            return None
        first = channels[0]
        for channel in channels[1:]:
            if (channel.num_users != first.num_users
                    or channel.correlation != first.correlation
                    or channel.innovation_std_db
                    != first.innovation_std_db
                    or channel._rng is not first._rng):
                return None
        return cls(channels)

    def step(self, rng: np.random.Generator) -> None:
        """Advance every channel by one slot (one block draw)."""
        rng.standard_normal(out=self._z)
        _ar1_step(self.snr_db, self.mean_snr_db, self._z,
                  self.correlation, self.innovation_std_db, self.cqi)


class FleetChannelBank:
    """Many networks' channel banks stacked into one ``(R, U)`` block.

    The batch engine steps B worlds per slot; with per-network banks
    that is still B Python-level AR(1) updates on small ``(S, U)``
    arrays -- at B=128 the dispatch overhead dominates the actual
    math.  The fleet bank holds every world's bank in rows
    ``starts[b]:starts[b + 1]`` of one block (the banks, and through
    them the channels, read their rows here), so a slot is one
    innovation draw per stepped world plus **one** fused AR(1) update,
    whether every world steps or any subset does.

    RNG parity is preserved exactly: each world's innovations are
    drawn from *its own* generator into its row block, in world order
    -- the identical stream the per-network banks (and the historical
    per-channel loops) consume; only the stepped worlds' generators
    advance.

    Built by :meth:`adopt`, which returns ``None`` when the banks are
    not uniform (user counts or AR(1) parameters differ) -- callers
    then keep the per-network path.  A world whose bank changed (slice
    churn) is spliced in by :meth:`replace`; nothing else moves.
    """

    def __init__(self, banks: Sequence[ChannelBank],
                 rngs: Sequence[np.random.Generator]) -> None:
        first = banks[0]
        self.banks = list(banks)
        self.rngs = list(rngs)
        self.correlation = first.correlation
        self.innovation_std_db = first.innovation_std_db
        self.starts = [0]
        for bank in banks:
            self.starts.append(self.starts[-1] + bank.snr_db.shape[0])
        for field in _STATE_FIELDS:
            setattr(self, field, np.concatenate(
                [getattr(bank, field) for bank in banks]))
        self._z = np.empty_like(self.snr_db)
        self._margin = np.empty_like(self.snr_db)
        for index, bank in enumerate(banks):
            self._take(index, bank)

    def _take(self, index: int, bank: ChannelBank) -> None:
        self.banks[index] = bank
        bank._home, bank._index = self, index
        bank._state = None

    @classmethod
    def adopt(cls, banks: Sequence[Optional[ChannelBank]],
              rngs: Sequence[np.random.Generator]
              ) -> Optional["FleetChannelBank"]:
        """Stack per-world banks, or ``None`` if any is missing or the
        populations are not uniform across worlds."""
        banks = list(banks)
        if not banks or any(bank is None for bank in banks):
            return None
        first = banks[0]
        for bank in banks[1:]:
            if (bank.snr_db.shape[1] != first.snr_db.shape[1]
                    or bank.correlation != first.correlation
                    or bank.innovation_std_db
                    != first.innovation_std_db):
                return None
        return cls(banks, rngs)

    def replace(self, index: int, bank: Optional[ChannelBank]) -> bool:
        """Splice world ``index``'s current bank into the block.

        Called when churn rebuilt the world's bank or another fleet
        took it: the bank this block held for the world gets its rows
        back (:meth:`ChannelBank.release`), the new bank's state
        replaces them, and later worlds' row ranges shift by the size
        difference.  Returns ``False`` -- nothing changed -- when the
        bank does not fit the block (missing, other user count or
        AR(1) parameters).
        """
        if (bank is None
                or bank.snr_db.shape[1] != self.snr_db.shape[1]
                or bank.correlation != self.correlation
                or bank.innovation_std_db != self.innovation_std_db):
            return False
        old = self.banks[index]
        if old is not bank and old._home is self:
            old.release()
        lo, hi = self.starts[index], self.starts[index + 1]
        for field in _STATE_FIELDS:
            block = getattr(self, field)
            setattr(self, field, np.concatenate(
                [block[:lo], getattr(bank, field), block[hi:]]))
        moved = bank.snr_db.shape[0] - (hi - lo)
        if moved:
            self.starts[index + 1:] = [
                start + moved for start in self.starts[index + 1:]]
            self._z = np.empty_like(self.snr_db)
            self._margin = np.empty_like(self.snr_db)
        self._take(index, bank)
        return True

    def step_worlds(self, worlds: Sequence[int],
                    rows: Optional[np.ndarray] = None):
        """Advance the given worlds' channels by one slot and return
        their ``(cqi, margin_db)`` rows, world-major.

        ``rows`` are the block rows of ``worlds`` (``None``: every
        world steps and the update runs on the block in place);
        either way it is one fused AR(1) update.  The returned arrays
        are this block's until the next call.
        """
        z, starts = self._z, self.starts
        for b in worlds:
            self.rngs[b].standard_normal(out=z[starts[b]:starts[b + 1]])
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
