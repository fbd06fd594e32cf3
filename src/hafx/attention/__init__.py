from .ops import (
    LA_CHUNK,
    LA_EPS,
    AblationMode,
    Activation,
    FeatureMapParams,
    HybridSpec,
    WindowSpec,
    apply_rope,
    feature_map_apply,
    hybrid_attention,
    linear_attention,
    linear_attention_masked,
    sinks_attention,
    sliding_window_attention,
    softmax_attention_causal,
)

