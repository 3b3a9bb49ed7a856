// Transformer encoder building blocks: multi-head attention (self- and
// cross-), position-wise feed-forward, and the post-LN encoder block.
//
// The attention API deliberately exposes separate query and key/value
// inputs: the ADTD content tower (paper Sec. 4.2.3) attends with
// Q = content latents and K = V = concat(metadata latents, content latents),
// which is exactly Forward(content, concat(meta, content), mask).

#ifndef TASTE_NN_TRANSFORMER_H_
#define TASTE_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace taste::nn {

/// Multi-head scaled-dot-product attention.
class MultiHeadAttention : public Module {
 public:
  /// `hidden` must be divisible by `num_heads`.
  MultiHeadAttention(int64_t hidden, int64_t num_heads, Rng& rng);

  /// q_input (sq, H), kv_input (skv, H), optional additive mask (sq, skv)
  /// with 0 for attendable and a large negative value for masked positions.
  /// Returns (sq, H).
  Tensor Forward(const Tensor& q_input, const Tensor& kv_input,
                 const Tensor* mask = nullptr,
                 ExecContext* ctx = nullptr) const;

  int64_t num_heads() const { return num_heads_; }

  /// Prepacks the q/k/v/out projections for the int8 inference path. The
  /// score and context matmuls (activation × activation) stay fp32.
  /// Returns packed resident bytes (as do the other PrepackQuant below).
  int64_t PrepackQuant();

 private:
  int64_t hidden_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
};

/// Position-wise feed-forward: Linear(H->I) -> GELU -> Linear(I->H).
class FeedForward : public Module {
 public:
  FeedForward(int64_t hidden, int64_t intermediate, Rng& rng);
  Tensor Forward(const Tensor& x, ExecContext* ctx = nullptr) const;

  /// Prepacks both projections for the int8 inference path.
  int64_t PrepackQuant();

 private:
  Linear up_;
  Linear down_;
};

/// One post-LayerNorm (BERT-style) Transformer encoder block. The same
/// block instance serves both ADTD towers — shared parameters, two
/// dataflows.
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t hidden, int64_t num_heads, int64_t intermediate,
                   float dropout, Rng& rng);

  /// Self-attention form: kv = q.
  Tensor Forward(const Tensor& x, const Tensor* mask = nullptr,
                 ExecContext* ctx = nullptr) const;

  /// General (cross-attention-capable) form. q_input (sq, H) is also the
  /// residual stream; kv_input (skv, H) feeds keys/values.
  Tensor Forward(const Tensor& q_input, const Tensor& kv_input,
                 const Tensor* mask, ExecContext* ctx = nullptr) const;

  /// Prepacks attention + FFN Linears for the int8 inference path.
  int64_t PrepackQuant();

 private:
  MultiHeadAttention attention_;
  FeedForward ffn_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  float dropout_;
  mutable Rng dropout_rng_;
};

/// Configuration of a BERT-style encoder stack (paper Sec. 2.3 notation).
struct EncoderConfig {
  int64_t num_layers = 2;       // L
  int64_t num_heads = 4;        // A
  int64_t max_seq_len = 512;    // Wmax
  int64_t intermediate = 256;   // I
  int64_t hidden = 64;          // H
  float dropout = 0.0f;

  /// The paper's TinyBERT-scale configuration (Sec. 4.2.1): L=4, A=12,
  /// Wmax=512, I=1200, H=312 (~14.5M parameters with vocab).
  static EncoderConfig Paper() {
    return {.num_layers = 4,
            .num_heads = 12,
            .max_seq_len = 512,
            .intermediate = 1200,
            .hidden = 312,
            .dropout = 0.1f};
  }
};

/// A stack of TransformerBlocks with shared ownership semantics: blocks are
/// addressable individually so two dataflows (the ADTD towers) can run over
/// the same parameters layer by layer.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const EncoderConfig& config, Rng& rng);

  /// Plain self-attention encoding of x (s, H) through all layers.
  Tensor Forward(const Tensor& x, const Tensor* mask = nullptr,
                 ExecContext* ctx = nullptr) const;

  int64_t num_layers() const { return static_cast<int64_t>(blocks_.size()); }
  const TransformerBlock& block(int64_t i) const { return *blocks_[i]; }
  const EncoderConfig& config() const { return config_; }

  /// Prepacks every block's Linears for the int8 inference path.
  int64_t PrepackQuant();

 private:
  EncoderConfig config_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

}  // namespace taste::nn

#endif  // TASTE_NN_TRANSFORMER_H_
