//! LLM model descriptors.
//!
//! A [`ModelSpec`] carries exactly the geometry the serving system needs:
//! how big the weights are (TE-Load, NPU-fork, DRAM pre-loading), how many
//! bytes of KV cache a token costs (RTC, block tables, transfer sizes), and
//! how much compute/memory a forward pass moves (the roofline cost model in
//! [`crate::cost`]). No numerics — serving behaviour depends on durations
//! and sizes, not logits (DESIGN.md substitution table).

use serde::Serialize;

/// Attention flavour; affects KV-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AttentionKind {
    /// Multi-head attention: KV heads == query heads.
    Mha,
    /// Grouped-query attention with the given KV head count.
    Gqa,
    /// DeepSeek-style multi-latent attention: KV compressed to a small
    /// latent per token, shared across heads. Makes data parallelism
    /// attractive because the per-token cache is tiny (§4.2 "optimized for
    /// DeepSeek's multi-latent attention (MLA) to reduce redundant caching").
    Mla {
        /// Compressed latent dimension per token per layer.
        latent_dim: u32,
    },
}

/// Static description of a dense (or MLA) transformer LLM.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelSpec {
    /// Human name, e.g. "llama3-70b".
    pub name: &'static str,
    /// Total parameter count.
    pub params: u64,
    /// Transformer layer count.
    pub num_layers: u32,
    /// Model (hidden) dimension.
    pub hidden: u32,
    /// Query head count.
    pub num_heads: u32,
    /// KV head count (== num_heads for MHA, fewer for GQA).
    pub num_kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Bytes per weight/KV element (2 for FP16/BF16).
    pub dtype_bytes: u32,
    /// Attention flavour.
    pub attention: AttentionKind,
    /// Maximum supported context length in tokens.
    pub max_context: u32,
}

impl ModelSpec {
    /// Total weight bytes of the checkpoint.
    pub fn weight_bytes(&self) -> u64 {
        self.params * self.dtype_bytes as u64
    }

    /// KV-cache bytes per token across all layers (un-partitioned).
    pub fn kv_bytes_per_token(&self) -> u64 {
        let per_layer = match self.attention {
            AttentionKind::Mla { latent_dim } => latent_dim as u64 * self.dtype_bytes as u64,
            _ => 2 * self.num_kv_heads as u64 * self.head_dim as u64 * self.dtype_bytes as u64,
        };
        per_layer * self.num_layers as u64
    }

    /// The same geometry at a different parameter count — fleet
    /// registries derive hundreds of size variants from a few preset
    /// families, and only the checkpoint size (hence cold-start cost)
    /// changes.
    pub fn scaled_to(mut self, params: u64) -> Self {
        self.params = params;
        self
    }

    /// Dense FLOPs per token through the linear layers (multiply-add = 2).
    pub fn linear_flops_per_token(&self) -> f64 {
        2.0 * self.params as f64
    }

    /// Attention FLOPs for one token attending to a context of `kv_len`
    /// tokens: QK^T plus attention-weighted V, per layer.
    pub fn attn_flops_per_token(&self, kv_len: u64) -> f64 {
        let per_layer = 4.0 * kv_len as f64 * (self.num_heads as u64 * self.head_dim as u64) as f64;
        per_layer * self.num_layers as f64
    }

    // ---- Presets (the models the paper evaluates) ----

    /// Llama3-8B: the NPU-fork scaling model (Figure 10, "Llama3-8B-TP1").
    pub fn llama3_8b() -> Self {
        ModelSpec {
            name: "llama3-8b",
            params: 8_030_000_000,
            num_layers: 32,
            hidden: 4096,
            num_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            vocab: 128_256,
            dtype_bytes: 2,
            attention: AttentionKind::Gqa,
            max_context: 8192,
        }
    }

    /// The "34B model" used throughout the serving evaluation (Figures 3-6,
    /// always with TP=4). Geometry follows Yi-34B/CodeLlama-34B-class
    /// models.
    pub fn internal_34b() -> Self {
        ModelSpec {
            name: "internal-34b",
            params: 34_400_000_000,
            num_layers: 60,
            hidden: 7168,
            num_heads: 56,
            num_kv_heads: 8,
            head_dim: 128,
            vocab: 64_000,
            dtype_bytes: 2,
            attention: AttentionKind::Gqa,
            max_context: 16384,
        }
    }

    /// Llama3-70B: pre-warmed-TE adaptability target (§6.1).
    pub fn llama3_70b() -> Self {
        ModelSpec {
            name: "llama3-70b",
            params: 70_600_000_000,
            num_layers: 80,
            hidden: 8192,
            num_heads: 64,
            num_kv_heads: 8,
            head_dim: 128,
            vocab: 128_256,
            dtype_bytes: 2,
            attention: AttentionKind::Gqa,
            max_context: 8192,
        }
    }

    /// A generic 7B model ("100 7B models fit in 1.5 TB DRAM", §6.2).
    pub fn generic_7b() -> Self {
        ModelSpec {
            name: "generic-7b",
            params: 7_000_000_000,
            num_layers: 32,
            hidden: 4096,
            num_heads: 32,
            num_kv_heads: 32,
            head_dim: 128,
            vocab: 32_000,
            dtype_bytes: 2,
            attention: AttentionKind::Mha,
            max_context: 4096,
        }
    }

    /// A DeepSeek-style MLA model for the data-parallel serving path.
    pub fn deepseek_mla() -> Self {
        ModelSpec {
            name: "deepseek-mla",
            params: 37_000_000_000, // activated params of a large MoE
            num_layers: 61,
            hidden: 7168,
            num_heads: 128,
            num_kv_heads: 128,
            head_dim: 128,
            vocab: 129_280,
            dtype_bytes: 2,
            attention: AttentionKind::Mla { latent_dim: 576 },
            max_context: 16384,
        }
    }

    /// A deliberately tiny model for fast unit tests.
    pub fn tiny_test() -> Self {
        ModelSpec {
            name: "tiny-test",
            params: 10_000_000,
            num_layers: 4,
            hidden: 256,
            num_heads: 4,
            num_kv_heads: 2,
            head_dim: 64,
            vocab: 1000,
            dtype_bytes: 2,
            attention: AttentionKind::Gqa,
            max_context: 2048,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_sizes_are_plausible() {
        // FP16: bytes = 2 * params.
        assert_eq!(ModelSpec::llama3_8b().weight_bytes(), 2 * 8_030_000_000);
        let gb_70b = ModelSpec::llama3_70b().weight_bytes() as f64 / (1u64 << 30) as f64;
        assert!(gb_70b > 125.0 && gb_70b < 140.0, "{gb_70b}");
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let gqa = ModelSpec::llama3_8b(); // 8 kv heads of 32
        let mha_equiv = ModelSpec {
            num_kv_heads: 32,
            attention: AttentionKind::Mha,
            ..gqa.clone()
        };
        assert_eq!(gqa.kv_bytes_per_token() * 4, mha_equiv.kv_bytes_per_token());
    }

    #[test]
    fn mla_kv_is_much_smaller_than_gqa() {
        let mla = ModelSpec::deepseek_mla();
        // MLA: latent_dim * dtype per layer, vs 2 * kv_heads * head_dim.
        let gqa_equiv = ModelSpec {
            attention: AttentionKind::Gqa,
            num_kv_heads: 8,
            ..mla.clone()
        };
        assert!(mla.kv_bytes_per_token() < gqa_equiv.kv_bytes_per_token());
    }

    #[test]
    fn kv_bytes_34b_match_hand_calculation() {
        let m = ModelSpec::internal_34b();
        // 2 (K and V) * 8 heads * 128 dim * 2 bytes * 60 layers = 245760.
        assert_eq!(m.kv_bytes_per_token(), 245_760);
    }

    #[test]
    fn flops_scale_with_context() {
        let m = ModelSpec::internal_34b();
        assert_eq!(m.linear_flops_per_token(), 2.0 * 34.4e9);
        assert!(m.attn_flops_per_token(4096) > m.attn_flops_per_token(1024));
        assert_eq!(m.attn_flops_per_token(0), 0.0);
    }
}
