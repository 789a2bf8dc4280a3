"""Design-time configuration of the SWAT accelerator.

SWAT is a parameterised design (Section 4.1 of the paper): the sliding-window
width, the indices of global-attention tokens, the per-row budget of
random-attention tokens, the arithmetic precision and the number of parallel
pipelines are all fixed at synthesis time.  :class:`SWATConfig` captures those
parameters and derives the quantities every other model needs (number of
attention cores of each kind, clock period, bytes per element, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.fpga.device import ALVEO_U55C, FPGADevice
from repro.numerics.floating import FP16, FP32, Precision, precision_from_name

__all__ = ["SWATConfig"]

#: The paper's standard window configuration: 2w = 512 attended window tokens.
DEFAULT_WINDOW_TOKENS = 512

#: The paper's standard head dimensionality.
DEFAULT_HEAD_DIM = 64


@dataclass(frozen=True)
class SWATConfig:
    """Design-time parameters of one SWAT instance.

    Attributes
    ----------
    head_dim:
        Head dimensionality ``H`` (64 in every paper experiment).
    window_tokens:
        Total band width ``2w``: the number of window attention cores.  Each
        query row attends to ``window_tokens`` neighbouring keys.
    num_global_tokens:
        Number of global-attention tokens; each gets a dedicated attention
        core with a statically pre-loaded K/V buffer.
    num_random_tokens:
        Number of random-attention tokens per query row (BigBird); each gets a
        dedicated attention core whose K/V buffer is refreshed every row.
    random_seed:
        Seed fixing the static random-attention pattern.
    precision:
        Datapath precision (:data:`repro.numerics.FP16` or ``FP32``).
    clock_mhz:
        Kernel clock frequency.
    num_pipelines:
        Number of replicated pipelines processing heads in parallel (the
        "2 x 512 attn" configuration of Table 2 uses two).
    device:
        Target FPGA card.
    """

    head_dim: int = DEFAULT_HEAD_DIM
    window_tokens: int = DEFAULT_WINDOW_TOKENS
    num_global_tokens: int = 0
    num_random_tokens: int = 0
    random_seed: int = 0
    precision: Precision = FP16
    clock_mhz: float = 300.0
    num_pipelines: int = 1
    device: FPGADevice = field(default=ALVEO_U55C)

    def __post_init__(self) -> None:
        if self.head_dim <= 0:
            raise ValueError(f"head_dim must be positive, got {self.head_dim}")
        if self.window_tokens <= 0:
            raise ValueError(f"window_tokens must be positive, got {self.window_tokens}")
        if self.window_tokens % 2 != 0:
            raise ValueError(
                f"window_tokens (2w) must be even, got {self.window_tokens}"
            )
        if self.num_global_tokens < 0 or self.num_random_tokens < 0:
            raise ValueError("global/random token counts must be non-negative")
        if self.precision.name not in (FP16.name, FP32.name):
            raise ValueError(
                f"SWAT synthesises FP16 or FP32 datapaths only, got {self.precision.name}"
            )
        if self.clock_mhz <= 0:
            raise ValueError(f"clock_mhz must be positive, got {self.clock_mhz}")
        if self.num_pipelines <= 0:
            raise ValueError(f"num_pipelines must be positive, got {self.num_pipelines}")

    # ------------------------------------------------------------------ #
    # Canonical paper configurations
    # ------------------------------------------------------------------ #

    @classmethod
    def longformer(cls, precision: "Precision | str" = FP16, **overrides) -> "SWATConfig":
        """The standard Longformer setup: 512 pure window attention cores, FP16."""
        overrides.setdefault("head_dim", DEFAULT_HEAD_DIM)
        overrides.setdefault("window_tokens", DEFAULT_WINDOW_TOKENS)
        overrides.setdefault("num_global_tokens", 0)
        overrides.setdefault("num_random_tokens", 0)
        return cls(precision=_resolve_precision(precision), **overrides)

    @classmethod
    def bigbird(cls, precision: "Precision | str" = FP16, **overrides) -> "SWATConfig":
        """The BigBird setup of Table 2: 192 window + 192 random + 128 global tokens."""
        overrides.setdefault("head_dim", DEFAULT_HEAD_DIM)
        overrides.setdefault("window_tokens", 192)
        overrides.setdefault("num_global_tokens", 128)
        overrides.setdefault("num_random_tokens", 192)
        return cls(precision=_resolve_precision(precision), **overrides)

    @classmethod
    def bigbird_dual_pipeline(cls, **overrides) -> "SWATConfig":
        """The dual-pipeline BigBird setup ("BigBird 2 x 512 attn") of Table 2."""
        return cls.bigbird(num_pipelines=2, **overrides)

    @classmethod
    def fp32_reference(cls, **overrides) -> "SWATConfig":
        """The FP32 512-core configuration used for the GPU comparison."""
        return cls.longformer(precision=FP32, **overrides)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def window_half_width(self) -> int:
        """Half-width ``w`` of the sliding window."""
        return self.window_tokens // 2

    @property
    def num_window_cores(self) -> int:
        """Attention cores dedicated to the sliding window (= 2w)."""
        return self.window_tokens

    @property
    def num_attention_cores(self) -> int:
        """Total attention cores in one pipeline (window + global + random)."""
        return self.window_tokens + self.num_global_tokens + self.num_random_tokens

    @property
    def tokens_attended_per_row(self) -> int:
        """Keys attended per query row — one per attention core."""
        return self.num_attention_cores

    @property
    def clock_hz(self) -> float:
        """Clock frequency in hertz."""
        return self.clock_mhz * 1.0e6

    @property
    def clock_period_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_hz

    @property
    def element_bytes(self) -> int:
        """Bytes per data element at the configured precision."""
        return self.precision.bytes

    @property
    def kv_row_bytes(self) -> int:
        """Bytes of one K row (or one V row)."""
        return self.head_dim * self.element_bytes

    @property
    def has_random_attention(self) -> bool:
        """True when random-attention cores are instantiated."""
        return self.num_random_tokens > 0

    @property
    def has_global_attention(self) -> bool:
        """True when global-attention cores are instantiated."""
        return self.num_global_tokens > 0

    def schedule_fingerprint(self) -> "tuple[object, ...]":
        """Hashable fingerprint of every field the row-major schedule depends on.

        Two configs with equal fingerprints produce identical execution plans
        and identical per-row traffic for every sequence length.  ``head_dim``
        and the precision enter through ``kv_row_bytes`` (traffic accounting);
        the window/global/random geometry and the random seed fix the key
        sets.  Used as the plan-cache key and to validate externally supplied
        plans against a simulator's config.
        """
        return (
            self.head_dim,
            self.window_tokens,
            self.num_global_tokens,
            self.num_random_tokens,
            self.random_seed,
            self.precision.name,
        )

    def with_precision(self, precision: "Precision | str") -> "SWATConfig":
        """Return a copy of this config at a different datapath precision."""
        return replace(self, precision=_resolve_precision(precision))

    def describe(self) -> str:
        """One-line human-readable description used in reports."""
        parts = [
            f"{self.precision.name.upper()}",
            f"{self.num_attention_cores} attn cores",
            f"H={self.head_dim}",
            f"window={self.window_tokens}",
        ]
        if self.num_global_tokens:
            parts.append(f"global={self.num_global_tokens}")
        if self.num_random_tokens:
            parts.append(f"random={self.num_random_tokens}")
        if self.num_pipelines > 1:
            parts.append(f"pipelines={self.num_pipelines}")
        return ", ".join(parts)


def _resolve_precision(precision: "Precision | str") -> Precision:
    if isinstance(precision, Precision):
        return precision
    return precision_from_name(precision)
