"""dest3d: state-space decoder blocks for 3D indoor object detection.

A desk-scale numpy library covering the state-dependent selective scan, its
geometric parameterization (spatial correlation table, delay kernel), Hilbert
point-cloud serialization, full decoder layers with a toy detection head, and
the verification oracles that tie the pieces to their mathematical contracts.
"""

from .decoder import (
    DecoderConfig,
    Detection,
    LayerOutput,
    StackResult,
    binary_focal_loss,
    decoder_layer,
    decoder_stack,
    decoder_weights_init,
    detection_head,
    gffn,
    inter_state_attention,
    objectness_labels,
)
from .geometry import (
    Box3D,
    Scene,
    box_local_coords,
    box_vertices,
    circumscribed_radius,
    farthest_point_sampling,
    point_in_box,
    synth_scene,
)
from .issm import (
    CorrelationMlp,
    CorrelationTable,
    IbsWeights,
    delay_kernel,
    gen_params,
    ibs_forward,
    ibs_weights_init,
    spatial_correlation,
)
from .numerics import (
    LinearWeights,
    PrngStream,
    depthwise_conv1d,
    layer_norm,
    linear,
    softmax_attention,
)
from .serialization import (
    AXIS_ORDERS,
    SerializationOrder,
    apply_axis_order,
    hilbert_indices,
    locality_score,
    order_for_layer,
    serialize,
)
from .ssm import (
    ScanInputs,
    ScanOutputs,
    discretize_zoh,
    finite_diff_grad,
    lti_conv_form,
    scan_backward,
    scan_chunked,
    scan_sequential,
)
from .verify import (
    EquivalenceReport,
    attention_direct,
    attention_recurrence,
    complexity_bench,
    run_equivalence_suite,
)

__version__ = "0.1.0"
