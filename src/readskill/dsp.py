"""Frame-level acoustic analysis: short-time energy, spectral centroid,
harmonicity and voice activity detection.

All analysis runs on 25 ms frames (400 samples) advanced by 10 ms
(160 samples). Frame timestamps refer to frame centers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SAMPLE_RATE, write_rows
from .errors import TooShort

FRAME_LEN = 400          # 25 ms
HOP = 160                # 10 ms
HOP_S = HOP / SAMPLE_RATE
FFT_SIZE = 512
ENERGY_FLOOR = 1e-12     # keeps log10 finite on digital silence
SILENCE_DBFS = -60.0     # below this, harmonicity is forced to 0
HARM_BLOCK = 64          # harmonicity frames per block: ~0.5 MB of spectra
CENTROID_MAX_HZ = 8000.0

# autocorrelation lag range for 60..400 Hz voicing
LAG_MIN = SAMPLE_RATE // 400   # 40
LAG_MAX = SAMPLE_RATE // 60    # 266

_HAMMING = np.hamming(FRAME_LEN)


@dataclass
class VadConfig:
    """Thresholds for the energy + harmonicity speech detector."""

    floor_percentile: float = 10.0
    margin_db: float = 6.0
    abs_threshold_db: float = -45.0
    harmonicity_threshold: float = 0.45
    harmonicity_margin_db: float = 3.0
    median_frames: int = 5
    hangover_frames: int = 2
    min_run_frames: int = 3


@dataclass
class FrameTrack:
    """Per-frame analysis of one recording."""

    energy: np.ndarray
    intensity_db: np.ndarray
    centroid_hz: np.ndarray
    is_speech: np.ndarray

    @property
    def n_frames(self) -> int:
        return len(self.energy)

    @property
    def times(self) -> np.ndarray:
        return frame_times(self.n_frames)


def frame_times(n_frames: int) -> np.ndarray:
    """Center times in seconds of the first n_frames frames."""
    return np.arange(n_frames) * HOP_S + (FRAME_LEN / SAMPLE_RATE) / 2.0


def frame_energy(frames: np.ndarray) -> np.ndarray:
    """Mean-square energy of each frame."""
    return np.mean(frames * frames, axis=1)


def raw_frames(samples: np.ndarray) -> np.ndarray:
    """Unweighted frames of a signal, as a strided view.

    Returns floor((len - FRAME_LEN) / HOP) + 1 frames; a trailing partial
    frame is dropped.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.size < FRAME_LEN:
        raise TooShort(f"need at least {FRAME_LEN} samples, got {x.size}")
    view = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)
    return view[::HOP]


def _centroid_batch(frames: np.ndarray) -> np.ndarray:
    """Power-weighted mean frequency of each frame's spectrum over
    (0, CENTROID_MAX_HZ], 0 for a silent frame. Both sums reduce each row
    on its own, with numpy's loops rather than BLAS, so a frame's value
    does not depend on the frames computed with it."""
    spec = np.abs(np.fft.rfft(frames, n=FFT_SIZE, axis=1)) ** 2
    freqs = np.fft.rfftfreq(FFT_SIZE, d=1.0 / SAMPLE_RATE)
    keep = slice(1, int(np.searchsorted(freqs, CENTROID_MAX_HZ, side="right")))
    spec = spec[:, keep]
    num = np.einsum("ij,j->i", spec, freqs[keep])
    denom = spec.sum(axis=1)
    out = np.zeros(len(frames))
    nz = denom > 0.0
    out[nz] = num[nz] / denom[nz]
    return out


def _harmonicity_batch(frames: np.ndarray, intensity_db: np.ndarray) -> np.ndarray:
    """Harmonicity of each frame: its peak normalized autocorrelation over
    lags spanning 60..400 Hz.

    Each lag's correlation is normalized by the energies of the two
    overlapping segments, so periodic frames score near 1 regardless of
    how many periods fit. Clamped to [0, 1], and 0 where intensity_db <
    SILENCE_DBFS (-60 dBFS).

    Frames under the silence gate are skipped. The rest are computed
    HARM_BLOCK at a time, so each block's spectrum and autocorrelation
    stay in cache; every row gets the same ops and bits as in one batch.
    """
    n = frames.shape[1]
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    taus = np.arange(LAG_MIN, LAG_MAX + 1)
    h = np.zeros(len(frames))
    live = np.flatnonzero(~(intensity_db < SILENCE_DBFS))
    for lo in range(0, live.size, HARM_BLOCK):
        rows = live[lo:lo + HARM_BLOCK]
        block = frames[rows]
        spec = np.fft.rfft(block, n=nfft, axis=1)
        # conj(spec) * spec, in this order: numpy's fused complex multiply
        # leaves a last-bit imaginary residue whose sign follows the operand
        # order, and numpy's temporary elision computes ``spec * np.conj(spec)``
        # as ``conj(spec) * spec`` once the temporary reaches 256 KiB (32
        # frames). With the order fixed, a frame's value does not depend on
        # how many frames share its block.
        ac = np.fft.irfft(np.conj(spec) * spec, axis=1)[:, :LAG_MAX + 1]

        csum = np.cumsum(block * block, axis=1)
        total = csum[:, -1]
        head = csum[:, n - 1 - taus]               # energy of x[0 : n-tau]
        tail = total[:, None] - csum[:, taus - 1]  # energy of x[tau : n]
        denom = np.sqrt(head * tail)
        num = ac[:, LAG_MIN:LAG_MAX + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(denom > 0.0, num / denom, 0.0)
        h[rows] = np.clip(rho.max(axis=1), 0.0, 1.0)
    return h


def bool_runs(mask: np.ndarray):
    """Yield (start, stop, value) for maximal constant runs of a 1-D bool
    array; stop is exclusive."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return
    edges = np.flatnonzero(np.diff(mask)) + 1
    bounds = np.concatenate(([0], edges, [mask.size]))
    for a, b in zip(bounds[:-1], bounds[1:]):
        yield int(a), int(b), bool(mask[a])


def _median_bool(mask: np.ndarray, win: int) -> np.ndarray:
    if win <= 1 or mask.size == 0:
        return mask.copy()
    half = win // 2
    padded = np.concatenate((np.repeat(mask[0], half), mask, np.repeat(mask[-1], half)))
    counts = np.convolve(padded.astype(np.int32), np.ones(win, dtype=np.int32), mode="valid")
    return counts > win // 2


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """True wherever a True lies within radius frames; keeps len(mask)."""
    if radius <= 0 or mask.size == 0:
        return mask.copy()
    # "same" would return 2 * radius + 1 values for a shorter mask
    counts = np.convolve(mask.astype(np.int32), np.ones(2 * radius + 1, dtype=np.int32),
                         mode="full")[radius:radius + mask.size]
    return counts > 0


def _close_short_gaps(mask: np.ndarray, min_run: int) -> np.ndarray:
    out = mask.copy()
    for a, b, val in bool_runs(mask):
        if val or b - a >= min_run:
            continue
        if a == 0 and b == mask.size:
            continue  # all-silence track stays silent
        out[a:b] = True
    return out


def vad_levels(intensity_db: np.ndarray, cfg: VadConfig) -> tuple[float, float]:
    """The VAD's noise floor and energy threshold, in dB.

    Frames above the threshold are speech and frames at or below
    floor + harmonicity_margin_db are not, whatever their harmonicity;
    only the band between reads it.
    """
    noise_floor = float(np.percentile(intensity_db, cfg.floor_percentile))
    return noise_floor, max(noise_floor + cfg.margin_db, cfg.abs_threshold_db)


def vad(intensity_db: np.ndarray, harm: np.ndarray, cfg: VadConfig | None = None) -> np.ndarray:
    """Per-frame speech decision.

    A frame is raw speech when its intensity clears an adaptive threshold
    (noise floor + margin, never below an absolute floor), or when it is
    harmonic and sits above a smaller margin. The raw decision is median
    filtered, speech runs are extended by a hangover on both sides, and
    any leftover silence gap shorter than min_run_frames is closed so the
    output contains no run shorter than min_run_frames.
    """
    cfg = cfg or VadConfig()
    noise_floor, threshold = vad_levels(intensity_db, cfg)
    raw = (intensity_db > threshold) | (
        (harm > cfg.harmonicity_threshold)
        & (intensity_db > noise_floor + cfg.harmonicity_margin_db)
    )
    smooth = _median_bool(raw, cfg.median_frames)
    smooth = _dilate(smooth, cfg.hangover_frames)
    return _close_short_gaps(smooth, cfg.min_run_frames)


def build_track(samples: np.ndarray, vad_config: VadConfig | None = None) -> FrameTrack:
    """Run the frame-level analysis for one recording.

    Energy, intensity and harmonicity come from raw frames; the spectral
    centroid uses Hamming-weighted frames. Harmonicity is computed here
    only for the VAD's band frames and left at 0 elsewhere, where the VAD
    does not read it; the result is the same as with the full track.
    """
    cfg = vad_config or VadConfig()
    raw = raw_frames(samples)
    energy = frame_energy(raw)
    intensity_db = 10.0 * np.log10(energy + ENERGY_FLOOR)
    centroid = _centroid_batch(raw * _HAMMING)
    noise_floor, threshold = vad_levels(intensity_db, cfg)
    band = ((intensity_db > noise_floor + cfg.harmonicity_margin_db)
            & (intensity_db <= threshold))
    harm = np.zeros(len(raw))
    harm[band] = _harmonicity_batch(raw[band], intensity_db[band])
    return FrameTrack(
        energy=energy,
        intensity_db=intensity_db,
        centroid_hz=centroid,
        is_speech=vad(intensity_db, harm, cfg),
    )


def moving_average(x: np.ndarray, win: int) -> np.ndarray:
    """Centered moving average; edge windows shrink to the available span."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0 or win <= 1:
        return x.copy()
    half = win // 2
    c = np.concatenate(([0.0], np.cumsum(x)))
    i = np.arange(x.size)
    lo = np.maximum(0, i - half)
    hi = np.minimum(x.size, i + half + 1)
    return (c[hi] - c[lo]) / (hi - lo)


def dump_frames(track: FrameTrack, samples: np.ndarray, path) -> None:
    """Write one row per frame of the track built from ``samples``, for
    debugging and audits. Harmonicity is computed here for every frame;
    build_track computes it for the VAD's band frames only."""
    harmonicity = _harmonicity_batch(raw_frames(samples), track.intensity_db)
    cols = (track.times.tolist(), track.energy.tolist(), track.intensity_db.tolist(),
            track.centroid_hz.tolist(), harmonicity.tolist(),
            np.asarray(track.is_speech, dtype=np.int64).tolist())
    write_rows([("time", "energy", "intensity_db", "centroid_hz", "harmonicity", "is_speech"),
                *zip(*cols)], path)
