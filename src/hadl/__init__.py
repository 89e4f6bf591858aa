"""Haar-compressed, DCT-featurized low-rank linear forecasting.

The pipeline halves a lookback window with a one-level Haar decomposition
(details dropped), moves the approximation into the frequency domain with a
scaled DCT-II, and predicts the full horizon with a single channel-shared
low-rank linear head. Includes the from-scratch trainer, a noise-robustness
harness, metric suite, and a CLI for experiments.
"""

from .data import (
    Dataset,
    Scaler,
    Segment,
    SeriesTensor,
    WindowBatch,
    fit_transform,
    inject_noise,
    load_csv,
    split,
    synth,
    windows,
)
from .metrics import (
    EvalReport,
    RobustnessReport,
    mav,
    mse,
    nrr,
    robustness_report,
)
from .model import (
    HEAD_DENSE,
    HEAD_LOW_RANK,
    HadlModel,
    ParamCount,
    effective_weight,
    forward,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .optim import (
    TrainConfig,
    TrainTrace,
    adam_step,
    train,
)
from .transforms import (
    dct2_raw,
    dct2_scaled,
    haar_batch,
)

__version__ = "0.1.0"
