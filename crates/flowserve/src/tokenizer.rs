//! The tokenizer module.
//!
//! In FlowServe the tokenizer "is an independent module that can scale on
//! its own" (§4.1) — it sits in front of the engine, off the NPU critical
//! path. This implementation is a deterministic hash-based subword
//! tokenizer: real text maps to stable token ids with realistic
//! tokens-per-word ratios, so prefix caching and the prompt trees operate on
//! genuine shared prefixes of real strings. No vocabulary files needed.

use serde::Serialize;
use simcore::SimDuration;

/// A token id. Ids below [`Tokenizer::FIRST_HASH_ID`] are reserved for
/// specials and byte fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TokenId(pub u32);

/// Maximum characters one subword piece covers.
const MAX_PIECE_CHARS: usize = 4;

/// CPU cost per produced token (amortized hash + table work).
const COST_PER_TOKEN_NS: u64 = 200;
/// Fixed per-call cost (request framing, dispatch to the tokenizer pool).
const COST_PER_CALL_US: u64 = 30;

/// Deterministic hash-based subword tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    vocab_size: u32,
}

impl Tokenizer {
    /// Lowest id produced by hashing; everything below is reserved.
    pub const FIRST_HASH_ID: u32 = 256;

    /// Creates a tokenizer with the given vocabulary size.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` does not exceed the reserved range.
    pub fn new(vocab_size: u32) -> Self {
        assert!(
            vocab_size > Self::FIRST_HASH_ID,
            "vocab_size {vocab_size} must exceed the reserved range {}",
            Self::FIRST_HASH_ID
        );
        Tokenizer { vocab_size }
    }

    /// Tokenizes text: words split on whitespace, long words split into
    /// <= 4-char pieces, each piece hashed (FNV-1a) into the vocab. Equal
    /// strings always produce equal token sequences, and a shared string
    /// prefix yields a shared token prefix (up to the final partial word).
    pub fn tokenize(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(text.len() / 4 + 1);
        for word in text.split_whitespace() {
            let chars: Vec<char> = word.chars().collect();
            for piece in chars.chunks(MAX_PIECE_CHARS) {
                out.push(self.hash_piece(piece));
            }
        }
        out
    }

    fn hash_piece(&self, piece: &[char]) -> TokenId {
        // FNV-1a over the UTF-32 code points.
        let mut h: u64 = 0xcbf29ce484222325;
        for &c in piece {
            h ^= c as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let span = self.vocab_size - Self::FIRST_HASH_ID;
        TokenId(Self::FIRST_HASH_ID + (h % span as u64) as u32)
    }

    /// CPU time to tokenize `token_count` tokens (the engine master charges
    /// this off the NPU critical path).
    pub fn cost(&self, token_count: usize) -> SimDuration {
        SimDuration::from_micros(COST_PER_CALL_US)
            + SimDuration::from_nanos(COST_PER_TOKEN_NS * token_count as u64)
    }
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer::new(64_000)
    }
}

/// A tokenized prompt shared by reference.
///
/// Prompts flow from the platform frontend through dispatch, engine
/// submission, cache registration and (in PD-disaggregated mode) KV
/// migration. Storing them as `Arc<[TokenId]>` makes every hop an O(1)
/// pointer copy instead of an O(prompt-length) token clone, and lets the
/// cluster free a finished request's tokens by dropping the last reference
/// — the key to running million-request streams in O(in-flight) memory.
/// Derefs to `[TokenId]`, so all slice-based consumers (prefix matching,
/// prompt trees) take it unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Prompt(std::sync::Arc<[TokenId]>);

impl Prompt {
    /// The tokens as a slice.
    pub fn as_slice(&self) -> &[TokenId] {
        &self.0
    }
}

impl From<Vec<TokenId>> for Prompt {
    fn from(tokens: Vec<TokenId>) -> Self {
        Prompt(std::sync::Arc::from(tokens))
    }
}

impl std::ops::Deref for Prompt {
    type Target = [TokenId];
    fn deref(&self) -> &[TokenId] {
        &self.0
    }
}

impl Serialize for Prompt {
    fn to_value(&self) -> serde::Value {
        self.0.as_ref().to_value()
    }
}

/// Builds a synthetic token sequence of exactly `len` tokens from a stream
/// seed. Sequences from equal `(seed, len)` are equal; sequences from equal
/// seeds share their full common prefix. Workload generators use this to
/// make prompts of controlled length and controlled prefix sharing without
/// generating megabytes of text.
pub fn synthetic_tokens(seed: u64, len: usize, vocab_size: u32) -> Vec<TokenId> {
    assert!(vocab_size > Tokenizer::FIRST_HASH_ID);
    let span = (vocab_size - Tokenizer::FIRST_HASH_ID) as u64;
    let mut out = Vec::with_capacity(len);
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    for _ in 0..len {
        // SplitMix64 step: deterministic, seed-keyed stream.
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        out.push(TokenId(Tokenizer::FIRST_HASH_ID + (z % span) as u32));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenization_is_deterministic() {
        let t = Tokenizer::default();
        let a = t.tokenize("the quick brown fox jumps over the lazy dog");
        let b = t.tokenize("the quick brown fox jumps over the lazy dog");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn shared_text_prefix_gives_shared_token_prefix() {
        let t = Tokenizer::default();
        let sys = "You are a helpful assistant. Answer concisely. ";
        let a = t.tokenize(&format!("{sys}What is Rust?"));
        let b = t.tokenize(&format!("{sys}Explain NPUs."));
        let common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        let sys_tokens = t.tokenize(sys).len();
        assert!(
            common >= sys_tokens,
            "common prefix {common} should cover the {sys_tokens}-token system prompt"
        );
    }

    #[test]
    fn long_words_split_into_pieces() {
        let t = Tokenizer::default();
        let toks = t.tokenize("internationalization");
        // 20 chars -> 5 pieces of <= 4 chars.
        assert_eq!(toks.len(), 5);
    }

    #[test]
    fn tokens_per_word_ratio_is_realistic() {
        let t = Tokenizer::default();
        let text = "Large language model serving has become one of the most \
                    crucial workloads in modern data centers today";
        let words = text.split_whitespace().count();
        let toks = t.tokenize(text).len();
        let ratio = toks as f64 / words as f64;
        assert!((1.0..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ids_stay_in_vocab() {
        let t = Tokenizer::new(1000);
        for tok in t.tokenize("some words of various lengths exist here") {
            assert!(tok.0 >= Tokenizer::FIRST_HASH_ID && tok.0 < 1000);
        }
    }

    #[test]
    fn cost_scales_with_tokens() {
        let t = Tokenizer::default();
        assert!(t.cost(10_000) > t.cost(10));
    }

    #[test]
    fn synthetic_sequences_share_prefixes_by_seed() {
        let a = synthetic_tokens(7, 100, 64_000);
        let b = synthetic_tokens(7, 150, 64_000);
        assert_eq!(&a[..], &b[..100], "same seed must share full prefix");
        let c = synthetic_tokens(8, 100, 64_000);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn empty_text_is_empty() {
        assert!(Tokenizer::default().tokenize("   ").is_empty());
        assert!(synthetic_tokens(1, 0, 64_000).is_empty());
    }
}
