"""advweave: a desk-scale lab for the noise-interleaving convolution attack.

Pieces:
  tensor    - channel-major tensors, quantization, bit statistics, T3B files
  conv      - reference convolution / activation / pooling / dense layers
  weave     - the interleaving attack transform and its equivalence oracle
  accel     - systolic-array MAC/cycle simulator and memory row layout
  adversary - tiny CNN, FGSM, universal perturbations, fooling metrics
  cli       - the `advweave` command-line front door
"""

from .accel import (FootprintComparison, MemoryImage, RowDescriptor, SimReport,
                    SystolicConfig, compare_attack_footprint, count_macs,
                    layout_rows, preset_config, stream_rows)
from .adversary import (FoolingReport, PerturbBudget, TinyCNN, TrainConfig,
                        backward, clip_adversarial, craft_uap, fgsm,
                        fooling_report, forward, init_model, load_model,
                        make_corpus, predict, random_noise, save_model,
                        softmax, train)
from .conv import ConvGeometry, FilterBank, conv2d, dense, maxpool2, relu
from .errors import BadGeometry, EmptyDataset, OutOfRange, ShapeMismatch
from .tensor import (BitStats, QuantSpec, Tensor3, bit_stats, dequantize,
                     linf_norm, quantize, read_t3b, write_t3b)
from .weave import (EquivalenceReport, attacked_conv, attacked_geometry,
                    deinterleave_rows, duplicate_filter_rows,
                    equivalence_report, interleave_rows)

__version__ = "0.1.0"
