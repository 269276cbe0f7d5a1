"""Live campaign progress for the CLI: done/total, EWMA ETA, tickers.

A long campaign used to be a black box until the final summary printed.
:class:`ProgressReporter` turns cell completions into a single status
line, rewritten in place on a terminal::

    [ 37/121]  30.6%  ETA 64s  retries 1  timeouts 0  last ADD/LDM 0.71s

The ETA comes from an exponentially weighted moving average of the
*completion intervals* observed by the parent process.  Measuring
intervals rather than per-cell simulation time makes the estimate
correct under the process pool for free: with W workers completing
cells concurrently, intervals shrink by roughly W, and the EWMA tracks
whatever throughput the pool actually sustains — including cache-hit
bursts and retry stalls.

The reporter writes to ``stderr`` by default (never ``stdout``, which
may be carrying CSV/JSON output), refreshes on every cell completion,
retry, and timeout, and ends with a newline so the final state stays
visible.  When the stream is not a terminal it stays silent unless
explicitly enabled (``savat campaign --progress``).
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable
from typing import TextIO

#: Smoothing factor of the completion-interval EWMA; 0.25 weights the
#: last ~8 cells, enough to ride out one slow outlier without going
#: stale when throughput genuinely changes (e.g. cache hits run out).
EWMA_ALPHA = 0.25


def format_eta(seconds: float) -> str:
    """Human-compact duration: ``42s``, ``3m10s``, ``2h05m``."""
    seconds = max(0.0, seconds)
    if seconds < 100:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 100:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Renders live campaign progress as one self-rewriting status line.

    Parameters
    ----------
    total:
        Total number of cells in the campaign.
    stream:
        Output stream (default ``sys.stderr``).
    enabled:
        ``True`` forces rendering, ``False`` silences the reporter, and
        ``None`` (default) auto-detects: render only when ``stream`` is
        a terminal.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        total: int,
        stream: TextIO | None = None,
        enabled: bool | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = int(total)
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty", lambda: False)())
        self.enabled = enabled
        self.clock = clock
        self.done = 0
        self.retries = 0
        self.timeouts = 0
        self.ewma_interval_s: float | None = None
        self._last_completion: float | None = None
        self._last_pair = ""
        self._last_elapsed_s = 0.0
        self._line_width = 0
        self._closed = False

    # ------------------------------------------------------------------
    def cell_completed(self, pair: str, elapsed_s: float) -> None:
        """Record one finished cell (simulated or cached)."""
        now = self.clock()
        if self._last_completion is not None:
            interval = now - self._last_completion
            if self.ewma_interval_s is None:
                self.ewma_interval_s = interval
            else:
                self.ewma_interval_s += EWMA_ALPHA * (
                    interval - self.ewma_interval_s
                )
        self._last_completion = now
        self.done += 1
        self._last_pair = pair
        self._last_elapsed_s = float(elapsed_s)
        self.render()

    def note_retry(self) -> None:
        """Tick the retry counter and refresh the line."""
        self.retries += 1
        self.render()

    def note_timeout(self) -> None:
        """Tick the timeout counter and refresh the line."""
        self.timeouts += 1
        self.render()

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion, or ``None`` before data."""
        if self.ewma_interval_s is None or self.done >= self.total:
            return 0.0 if self.done >= self.total else None
        return self.ewma_interval_s * (self.total - self.done)

    # ------------------------------------------------------------------
    def compose(self) -> str:
        """The current status line (without carriage return/padding)."""
        width = len(str(self.total))
        percent = 100.0 * self.done / self.total if self.total else 100.0
        eta = self.eta_seconds()
        eta_text = format_eta(eta) if eta is not None else "--"
        line = (
            f"[{self.done:>{width}}/{self.total}] {percent:5.1f}%  "
            f"ETA {eta_text}  retries {self.retries}  "
            f"timeouts {self.timeouts}"
        )
        if self._last_pair:
            line += f"  last {self._last_pair} {self._last_elapsed_s:.2f}s"
        return line

    def render(self) -> None:
        """Rewrite the status line in place (no-op when disabled)."""
        if not self.enabled or self._closed:
            return
        line = self.compose()
        padding = " " * max(0, self._line_width - len(line))
        self._line_width = len(line)
        self.stream.write("\r" + line + padding)
        self.stream.flush()

    def close(self) -> None:
        """Finalize: render once more and terminate the line (idempotent)."""
        if not self.enabled or self._closed:
            self._closed = True
            return
        self.render()
        self.stream.write("\n")
        self.stream.flush()
        self._closed = True


__all__ = ["EWMA_ALPHA", "ProgressReporter", "format_eta"]
