#include "nn/transformer.h"

#include <cmath>

#include "common/string_util.h"

namespace taste::nn {

using tensor::Shape;

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       Rng& rng)
    : hidden_(hidden),
      num_heads_(num_heads),
      head_dim_(hidden / num_heads),
      q_proj_(hidden, hidden, rng),
      k_proj_(hidden, hidden, rng),
      v_proj_(hidden, hidden, rng),
      out_proj_(hidden, hidden, rng) {
  TASTE_CHECK_MSG(hidden % num_heads == 0,
                  "hidden size must be divisible by num_heads");
  RegisterModule("q", &q_proj_);
  RegisterModule("k", &k_proj_);
  RegisterModule("v", &v_proj_);
  RegisterModule("out", &out_proj_);
}

Tensor MultiHeadAttention::Forward(const Tensor& q_input,
                                   const Tensor& kv_input, const Tensor* mask,
                                   ExecContext* exec_ctx) const {
  tensor::ScopedExecContext scope(exec_ctx);
  const int64_t sq = q_input.dim(0);
  const int64_t skv = kv_input.dim(0);
  // Project and split heads: (s, H) -> (s, A, hd) -> (A, s, hd).
  auto split = [this](const Tensor& x, int64_t s) {
    return tensor::Permute3(
        tensor::Reshape(x, {s, num_heads_, head_dim_}), {1, 0, 2});
  };
  Tensor q = split(q_proj_.Forward(q_input), sq);    // (A, sq, hd)
  Tensor k = split(k_proj_.Forward(kv_input), skv);  // (A, skv, hd)
  Tensor v = split(v_proj_.Forward(kv_input), skv);  // (A, skv, hd)

  Tensor scores = tensor::BatchedMatMul(q, tensor::TransposeLast2(k));
  scores = tensor::Scale(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  if (mask != nullptr) {
    TASTE_CHECK_MSG(mask->dim(0) == sq && mask->dim(1) == skv,
                    "attention mask shape mismatch");
    scores = tensor::AddBroadcastMat(scores, *mask);
  }
  Tensor probs = tensor::Softmax(scores);           // (A, sq, skv)
  Tensor ctx = tensor::BatchedMatMul(probs, v);     // (A, sq, hd)
  ctx = tensor::Reshape(tensor::Permute3(ctx, {1, 0, 2}), {sq, hidden_});
  return out_proj_.Forward(ctx);
}

FeedForward::FeedForward(int64_t hidden, int64_t intermediate, Rng& rng)
    : up_(hidden, intermediate, rng), down_(intermediate, hidden, rng) {
  RegisterModule("up", &up_);
  RegisterModule("down", &down_);
}

Tensor FeedForward::Forward(const Tensor& x, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return down_.Forward(tensor::Gelu(up_.Forward(x)));
}

int64_t FeedForward::PrepackQuant() {
  return up_.PrepackQuant() + down_.PrepackQuant();
}

int64_t MultiHeadAttention::PrepackQuant() {
  return q_proj_.PrepackQuant() + k_proj_.PrepackQuant() +
         v_proj_.PrepackQuant() + out_proj_.PrepackQuant();
}

TransformerBlock::TransformerBlock(int64_t hidden, int64_t num_heads,
                                   int64_t intermediate, float dropout,
                                   Rng& rng)
    : attention_(hidden, num_heads, rng),
      ffn_(hidden, intermediate, rng),
      norm1_(hidden),
      norm2_(hidden),
      dropout_(dropout),
      dropout_rng_(rng.NextU64()) {
  RegisterModule("attn", &attention_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("norm1", &norm1_);
  RegisterModule("norm2", &norm2_);
}

Tensor TransformerBlock::Forward(const Tensor& x, const Tensor* mask,
                                 ExecContext* ctx) const {
  return Forward(x, x, mask, ctx);
}

Tensor TransformerBlock::Forward(const Tensor& q_input, const Tensor& kv_input,
                                 const Tensor* mask, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  Tensor attn = attention_.Forward(q_input, kv_input, mask);
  attn = tensor::Dropout(attn, dropout_, dropout_rng_, training());
  Tensor x = norm1_.Forward(tensor::Add(q_input, attn));
  Tensor ff = ffn_.Forward(x);
  ff = tensor::Dropout(ff, dropout_, dropout_rng_, training());
  return norm2_.Forward(tensor::Add(x, ff));
}

int64_t TransformerBlock::PrepackQuant() {
  return attention_.PrepackQuant() + ffn_.PrepackQuant();
}

TransformerEncoder::TransformerEncoder(const EncoderConfig& config, Rng& rng)
    : config_(config) {
  TASTE_CHECK(config.num_layers > 0);
  blocks_.reserve(config.num_layers);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        config.hidden, config.num_heads, config.intermediate, config.dropout,
        rng));
    RegisterModule(StrFormat("layer%d", static_cast<int>(i)),
                   blocks_.back().get());
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x, const Tensor* mask,
                                   ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  Tensor h = x;
  for (const auto& block : blocks_) h = block->Forward(h, mask);
  return h;
}

int64_t TransformerEncoder::PrepackQuant() {
  int64_t bytes = 0;
  for (const auto& block : blocks_) bytes += block->PrepackQuant();
  return bytes;
}

}  // namespace taste::nn
