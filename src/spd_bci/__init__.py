"""Spatio-temporal EEG learning: SPD covariance geometry fused with spectral sequence features."""

from .filters import (
    BandSpec,
    EegSegment,
    FilterBank,
    ZeroPhaseFilter,
    apply_filter_zero_phase,
    design_butterworth_bandpass,
    design_filter_bank,
    design_notch,
    filter_bank_decompose,
    minmax_normalize,
    notch_filter,
    seed_rhythm_bands,
    uniform_bands,
    zero_phase_sos,
)
from .geometry import (
    MdrmClassifier,
    airm_distance,
    euclidean_mean,
    exp_map,
    expm,
    invsqrtm,
    log_map,
    logm,
    pca_spatial_filter,
    reduce_covariance,
    reduce_signal,
    ridge_regularize,
    riemannian_mean,
    scm,
    sqrtm,
    tangent_dimension,
    tangent_vectorize,
    upper_vectorize,
)
from .model import ArchitectureConfig, TwoStreamModel, evaluate_model, train_model
from .spectral import (
    BandBasis,
    FeatureSequence,
    StftPlan,
    band_basis,
    build_feature_sequence,
    de_feature,
    log_psd_feature,
    periodogram,
    plan_stft,
)

__version__ = "0.1.0"
