"""Simulation and analysis toolkit for OPA-assisted broadband homodyne
measurement of squeezed light."""

from .gaussian import (ChainModel, ChannelSpec, GaussianState,
                       effective_efficiency, homodyne_variance, loss,
                       paper_default_chain, phase, post_amplifier_loss, psa,
                       pump_curve, relative_quadrature_power, squeeze)
from .signal_chain import (AcquisitionConfig, Ensemble, FrequencyResponse,
                           extract_wavepacket, model_variance, psd_model,
                           synthesize_frame, synthesize_frames)
from .analysis import (FrameStats, SpectrumEstimate, SqueezeFitResult,
                       averaged_fft, fit_pump_curve, frame_variances, histogram,
                       level_from_variances, loss_sweep, pooled_histogram,
                       relative_level, variance_level)
from .wdm import BandPlan, plan_bands
from .config import ExperimentConfig

__version__ = "0.1.0"
