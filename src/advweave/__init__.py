"""advweave: a desk-scale lab for the noise-interleaving convolution attack.

Every operation takes and returns plain numpy arrays: one image is a
(C, H, W) array, a batch an (N, C, H, W) one. Tensor3 is only the record
of a T3B file, as read_t3b returns it; np.asarray gives its array.

Pieces:
  tensor    - quantization, bit statistics, T3B files
  conv      - one batched convolution kernel; activation / dense
  weave     - the interleaving attack transform and its equivalence oracle
  accel     - systolic-array MAC/cycle simulator and memory row layout
  adversary - tiny CNN, FGSM, universal perturbations, fooling metrics
  cli       - the `advweave` command-line front door
"""

from .accel import (FootprintComparison, MemoryImage, RowDescriptor, SimReport,
                    SystolicConfig, compare_attack_footprint, count_macs,
                    layout_rows, preset_config)
from .adversary import (FoolingReport, PerturbBudget, TinyCNN, TrainConfig,
                        backward, craft_uap, fgsm, fooling_report, forward,
                        init_model, load_model, make_corpus, predict,
                        random_noise, save_model, softmax, train)
from .conv import ConvGeometry, FilterBank, conv2d_nchw, dense, relu
from .errors import (BadGeometry, EmptyDataset, FormatError, OutOfRange,
                     ShapeMismatch)
from .tensor import (BitStats, QuantSpec, Tensor3, bit_stats, linf_norm,
                     quantize, read_t3b, write_t3b)
from .weave import (EquivalenceReport, attacked_conv_nchw, attacked_geometry,
                    duplicate_filter_rows, equivalence_report, weave_rows)

__version__ = "0.1.0"
