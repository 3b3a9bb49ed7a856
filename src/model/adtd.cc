#include "model/adtd.h"

#include <cstring>

#include "tensor/ops.h"

namespace taste::model {

using tensor::Tensor;

AdtdConfig AdtdConfig::Tiny(int vocab_size, int num_types) {
  AdtdConfig c;
  c.encoder = {.num_layers = 2,
               .num_heads = 4,
               .max_seq_len = 512,
               .intermediate = 128,
               .hidden = 48,
               .dropout = 0.0f};
  c.input = InputConfig{};
  c.vocab_size = vocab_size;
  c.num_types = num_types;
  c.meta_classifier_hidden = 64;
  c.content_classifier_hidden = 128;
  return c;
}

AdtdConfig AdtdConfig::Paper(int vocab_size, int num_types) {
  AdtdConfig c;
  c.encoder = nn::EncoderConfig::Paper();
  c.input = InputConfig::Paper();
  c.vocab_size = vocab_size;
  c.num_types = num_types;
  c.meta_classifier_hidden = 500;
  c.content_classifier_hidden = 1000;
  c.embedding_dropout = 0.1f;
  return c;
}

AdtdModel::AdtdModel(const AdtdConfig& config, Rng& rng)
    : config_(config),
      token_embedding_(config.vocab_size, config.encoder.hidden, rng),
      position_embedding_(config.encoder.max_seq_len, config.encoder.hidden,
                          rng),
      embedding_norm_(config.encoder.hidden),
      encoder_(config.encoder, rng),
      meta_classifier_(config.encoder.hidden + NonTextualFeatures::kDim,
                       config.meta_classifier_hidden, config.num_types, rng),
      content_classifier_(2 * config.encoder.hidden + NonTextualFeatures::kDim,
                          config.content_classifier_hidden, config.num_types,
                          rng) {
  TASTE_CHECK(config.vocab_size > 0 && config.num_types > 0);
  RegisterModule("tok_emb", &token_embedding_);
  RegisterModule("pos_emb", &position_embedding_);
  RegisterModule("emb_norm", &embedding_norm_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("meta_clf", &meta_classifier_);
  RegisterModule("cont_clf", &content_classifier_);
  w1_ = RegisterParameter("loss_w1",
                          Tensor::Scalar(1.0f, /*requires_grad=*/true));
  w2_ = RegisterParameter("loss_w2",
                          Tensor::Scalar(1.0f, /*requires_grad=*/true));
}

Tensor AdtdModel::Embed(const std::vector<int>& ids) const {
  TASTE_CHECK_MSG(
      static_cast<int64_t>(ids.size()) <= config_.encoder.max_seq_len,
      "sequence exceeds max_seq_len");
  std::vector<int> positions(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) positions[i] = static_cast<int>(i);
  Tensor tok = token_embedding_.Forward(ids);
  Tensor pos = position_embedding_.Forward(positions);
  return embedding_norm_.Forward(tensor::Add(tok, pos));
}

AdtdModel::MetadataEncoding AdtdModel::ForwardMetadata(
    const EncodedMetadata& input, tensor::ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  TASTE_CHECK(input.num_columns > 0);
  MetadataEncoding out;
  out.layer_latents.reserve(static_cast<size_t>(encoder_.num_layers()) + 1);
  Tensor h = Embed(input.token_ids);
  out.layer_latents.push_back(h);
  for (int64_t i = 0; i < encoder_.num_layers(); ++i) {
    // Cooperative cancellation: a table whose deadline fired mid-forward
    // stops burning compute between layers. The partial encoding is
    // discarded by the caller (the detector re-checks the token and never
    // classifies or caches it).
    if (tensor::ExecContext* c = tensor::ExecContext::Current();
        c != nullptr && c->cancelled()) {
      break;
    }
    h = encoder_.block(i).Forward(h, &input.attention_mask);
    out.layer_latents.push_back(h);
  }
  out.anchor_states = tensor::GatherRows(h, input.column_anchors);
  Tensor clf_in = tensor::ConcatCols(out.anchor_states, input.features);
  out.logits = meta_classifier_.Forward(clf_in);
  return out;
}

Tensor AdtdModel::ForwardContent(
    const EncodedContent& content, const EncodedMetadata& meta,
    const MetadataEncoding& meta_encoding, tensor::ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  // The int8 window: under a kInt8 context, prepacked Linears below run
  // the quantized kernel. ForwardMetadata never opens this window, so
  // cached latents are fp32-byte-stable whatever dtype serves P2.
  tensor::ScopedQuantRegion quant_region(tensor::ExecContext::Current());
  TASTE_CHECK_MSG(!content.scanned.empty(),
                  "ForwardContent requires at least one scanned column");
  TASTE_CHECK(static_cast<int64_t>(meta_encoding.layer_latents.size()) ==
              encoder_.num_layers() + 1);
  Tensor c = Embed(content.token_ids);
  for (int64_t i = 0; i < encoder_.num_layers(); ++i) {
    // Cooperative cancellation between layers, as in ForwardMetadata; the
    // caller discards the partial result after re-checking its token.
    if (tensor::ExecContext* ec = tensor::ExecContext::Current();
        ec != nullptr && ec->cancelled()) {
      break;
    }
    // K = V = Encode_{i-1}^{M} (+) Encode_{i-1}^{D}; Q = Encode_{i-1}^{D}.
    Tensor kv = tensor::ConcatRows(
        {meta_encoding.layer_latents[static_cast<size_t>(i)], c});
    c = encoder_.block(i).Forward(c, kv, &content.cross_mask);
  }
  Tensor content_anchors = tensor::GatherRows(c, content.column_anchors);
  Tensor meta_anchors =
      tensor::GatherRows(meta_encoding.anchor_states,
                         content.scanned);  // rows of (ncols, H)
  Tensor feats = tensor::GatherRows(meta.features, content.scanned);
  Tensor clf_in = tensor::ConcatCols(
      tensor::ConcatCols(content_anchors, meta_anchors), feats);
  return content_classifier_.Forward(clf_in);
}

namespace {

/// L_i / (2 w^2) + ln(1 + w^2) for one task.
Tensor WeightedTerm(const Tensor& loss, const Tensor& w) {
  Tensor w2 = tensor::Square(w);
  Tensor coeff = tensor::Reciprocal(tensor::Scale(w2, 2.0f));
  Tensor reg = tensor::Log(tensor::AddScalar(w2, 1.0f));
  return tensor::Add(tensor::Mul(loss, coeff), reg);
}

}  // namespace

Tensor AdtdModel::MultiTaskLoss(const Tensor& meta_logits,
                                const Tensor& meta_targets,
                                const Tensor& content_logits,
                                const Tensor& content_targets) const {
  Tensor l1 = tensor::BceWithLogits(meta_logits, meta_targets,
                                    config_.bce_pos_weight);
  Tensor l2 = tensor::BceWithLogits(content_logits, content_targets,
                                    config_.bce_pos_weight);
  return tensor::Add(WeightedTerm(l1, w1_), WeightedTerm(l2, w2_));
}

Tensor AdtdModel::MetaOnlyLoss(const Tensor& meta_logits,
                               const Tensor& meta_targets) const {
  Tensor l1 = tensor::BceWithLogits(meta_logits, meta_targets,
                                    config_.bce_pos_weight);
  return WeightedTerm(l1, w1_);
}

Tensor AdtdModel::MlmLogits(const std::vector<int>& ids) const {
  Tensor h = encoder_.Forward(Embed(ids));
  // Weight tying: logits = h x E^T.
  return tensor::MatMul(h, tensor::TransposeLast2(token_embedding_.weight()));
}

std::pair<float, float> AdtdModel::loss_weights() const {
  return {w1_.item(), w2_.item()};
}

int64_t AdtdModel::PrepackQuantWeights() {
  const int64_t bytes =
      encoder_.PrepackQuant() + content_classifier_.PrepackQuant();
  quant_prepacked_ = true;
  return bytes;
}

Status AdtdModel::VerifyQuantScales(
    const std::map<std::string, std::vector<float>>& expected) const {
  const auto own = NamedQuantScales();
  std::map<std::string, const std::vector<float>*> by_name;
  for (const auto& [name, scales] : own) by_name[name] = &scales;
  for (const auto& [name, want] : expected) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::Invalid("checkpoint quant scales for unknown " +
                                     name);
    }
    const std::vector<float>& got = *it->second;
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(float)) != 0) {
      return Status::Invalid(
          "quant scale mismatch vs checkpoint at " + name +
          " (weights or quantizer drifted since save)");
    }
  }
  return Status::OK();
}

Tensor BuildTargets(const std::vector<std::vector<int>>& labels,
                    int num_types) {
  int64_t n = static_cast<int64_t>(labels.size());
  std::vector<float> data(static_cast<size_t>(n * num_types), 0.0f);
  for (int64_t c = 0; c < n; ++c) {
    for (int t : labels[static_cast<size_t>(c)]) {
      TASTE_CHECK(t >= 0 && t < num_types);
      data[static_cast<size_t>(c * num_types + t)] = 1.0f;
    }
  }
  return Tensor::FromVector({n, num_types}, std::move(data));
}

}  // namespace taste::model
