"""advweave: a desk-scale lab for the noise-interleaving convolution attack.

Pieces:
  tensor    - channel-major tensors, quantization, bit statistics, T3B files
  conv      - one batched convolution kernel; activation / pooling / dense
  weave     - the interleaving attack transform and its equivalence oracle
  accel     - systolic-array MAC/cycle simulator and memory row layout
  adversary - tiny CNN, FGSM, universal perturbations, fooling metrics
  cli       - the `advweave` command-line front door
"""

from .accel import (FootprintComparison, MemoryImage, RowDescriptor, SimReport,
                    SystolicConfig, compare_attack_footprint, count_macs,
                    layout_rows, preset_config, stream_rows)
from .adversary import (FoolingReport, PerturbBudget, TinyCNN, TrainConfig,
                        backward, backward_batch, clip_adversarial, craft_uap,
                        fgsm, fooling_report, forward, forward_batch,
                        init_model, load_model, make_corpus, predict,
                        predict_batch, random_noise, save_model, softmax,
                        train)
from .conv import (ConvGeometry, FilterBank, conv2d, conv2d_nchw, dense,
                   maxpool2, maxpool2_argmax, relu)
from .errors import BadGeometry, EmptyDataset, OutOfRange, ShapeMismatch
from .tensor import (BitStats, QuantSpec, Tensor3, bit_stats, dequantize,
                     linf_norm, quantize, read_t3b, write_t3b)
from .weave import (EquivalenceReport, attacked_conv, attacked_conv_nchw,
                    attacked_geometry, deinterleave_rows,
                    duplicate_filter_rows, equivalence_report,
                    interleave_rows, weave_rows)

__version__ = "0.1.0"
