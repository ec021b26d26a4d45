#include "replay.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "codec/merkle.hpp"
#include "codec/reed_solomon.hpp"
#include "crypto/sha256.hpp"
#include "types/messages.hpp"
#include "types/pool.hpp"

namespace perfbench {

using namespace icc;

namespace {

volatile uint64_t g_sink = 0;

/// Median over five batches (each >= 2 ms and >= 1 call) of the wall time
/// per op of `f`, after one warm-up call. `f` returns a value folded into a
/// sink so the work cannot be optimized away.
template <class F>
double per_op_us(SpanLog* spans, const char* name, F&& f, double ops_per_call = 1) {
  g_sink = g_sink + f();
  SpanScope span(spans, name);
  std::vector<double> batches;
  uint64_t calls_total = 0;
  for (int b = 0; b < 5; ++b) {
    const double t0 = wall_s();
    uint64_t calls = 0;
    double t1 = t0;
    do {
      g_sink = g_sink + f();
      ++calls;
      t1 = wall_s();
    } while (t1 - t0 < 0.002);
    batches.push_back((t1 - t0) * 1e6 / (static_cast<double>(calls) * ops_per_call));
    calls_total += calls;
  }
  span.set_count(calls_total);
  return median(batches);
}

struct HonestRound {
  types::ProposalMsg proposal;
  std::vector<types::NotarizationShareMsg> notar_shares;
  types::NotarizationMsg notarization;
  std::vector<types::FinalizationShareMsg> final_shares;
  types::FinalizationMsg finalization;
  std::vector<types::BeaconShareMsg> beacon_shares;
};

std::vector<std::pair<types::PartyIndex, Bytes>> as_pairs(
    const std::vector<types::NotarizationShareMsg>& shares) {
  std::vector<std::pair<types::PartyIndex, Bytes>> out;
  for (const auto& s : shares) out.emplace_back(s.signer, s.share);
  return out;
}

/// One honest round as the protocol produces it: the proposal (with its
/// authenticator and parent notarization), a quorum of notarization and
/// finalization shares with their aggregates, and the beacon shares.
HonestRound make_round(crypto::CryptoProvider& c, types::Round r, const types::Hash& parent,
                 const Bytes& parent_notarization, const Bytes& payload, size_t shares) {
  HonestRound out;
  types::Block& b = out.proposal.block;
  b.round = r;
  b.proposer = 0;
  b.parent_hash = parent;
  b.payload = payload;
  const types::Hash h = b.hash();
  out.proposal.authenticator = c.sign(0, types::authenticator_message(r, 0, h));
  out.proposal.parent_notarization = parent_notarization;
  const Bytes nm = types::notarization_message(r, 0, h);
  const Bytes fm = types::finalization_message(r, 0, h);
  const Bytes bm = types::beacon_message(r, types::genesis_beacon());
  std::vector<std::pair<types::PartyIndex, Bytes>> fpairs;
  for (size_t i = 0; i < shares; ++i) {
    const auto signer = static_cast<types::PartyIndex>(i);
    out.notar_shares.push_back(
        {r, 0, h, signer, c.threshold_sign_share(crypto::Scheme::kNotary, signer, nm)});
    out.final_shares.push_back(
        {r, 0, h, signer, c.threshold_sign_share(crypto::Scheme::kFinal, signer, fm)});
    fpairs.emplace_back(signer, out.final_shares.back().share);
    out.beacon_shares.push_back({r, signer, c.beacon_sign_share(signer, bm)});
  }
  out.notarization = {r, 0, h,
                      c.threshold_combine_preverified(crypto::Scheme::kNotary, nm,
                                                      as_pairs(out.notar_shares))};
  out.finalization = {r, 0, h,
                      c.threshold_combine_preverified(crypto::Scheme::kFinal, fm, fpairs)};
  return out;
}

}  // namespace

LayerCosts replay_layers(const WorkloadSpec& spec, uint64_t seed, crypto::CryptoProvider& c,
                         const Bytes& payload, const std::map<size_t, uint64_t>& wire_sizes,
                         SpanLog* spans) {
  SpanScope top(spans, "bench.replay");
  LayerCosts out;
  const size_t quorum = c.quorum();

  // A short chain of honest rounds (pool replay needs parents).
  const types::Round rounds = 8;
  std::vector<HonestRound> chain;
  {
    types::Hash parent = types::root_hash();
    Bytes parent_notarization;
    for (types::Round r = 1; r <= rounds; ++r) {
      chain.push_back(make_round(c, r, parent, parent_notarization, payload, quorum));
      parent = chain.back().proposal.block.hash();
      parent_notarization = types::serialize_message(chain.back().notarization);
    }
  }

  // --- types: the workload's wire messages ------------------------------------
  const HonestRound& last = chain.back();
  std::vector<types::Message> kinds = {last.proposal,     last.notar_shares[0],
                                       last.notarization, last.final_shares[0],
                                       last.finalization, last.beacon_shares[0]};
  const Bytes proposal_wire = types::serialize_message(last.proposal);
  const codec::ReedSolomon rs(spec.n - 2 * spec.t, spec.n);
  const auto fragments = rs.encode(proposal_wire);
  std::vector<Bytes> leaves;
  for (const auto& f : fragments) leaves.push_back(f.data);
  const codec::MerkleTree tree(leaves);
  if (spec.protocol == harness::Protocol::kIcc1) {
    const types::Hash id = types::artifact_id(proposal_wire);
    kinds.push_back(types::AdvertMsg{0, last.proposal.block.round, id,
                                     static_cast<uint32_t>(proposal_wire.size())});
    kinds.push_back(types::RequestMsg{id});
  } else if (spec.protocol == harness::Protocol::kIcc2) {
    types::RbcFragmentMsg f;
    f.round = last.proposal.block.round;
    f.block_hash = last.proposal.block.hash();
    f.merkle_root = tree.root();
    f.block_len = static_cast<uint32_t>(proposal_wire.size());
    f.fragment = fragments[1].data;
    f.merkle_proof = tree.prove(1).serialize();
    f.authenticator = last.proposal.authenticator;
    f.parent_notarization = last.proposal.parent_notarization;
    kinds.push_back(f);
  }
  std::vector<Bytes> wires;
  for (const auto& m : kinds) wires.push_back(types::serialize_message(m));

  // Weight each kind by the wire messages of the nearest size (a frame adds
  // 64 bytes on the wire, sim::Network's default).
  std::vector<double> weight(kinds.size(), wire_sizes.empty() ? 1.0 : 0.0);
  for (const auto& [size, count] : wire_sizes) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (size_t k = 0; k < wires.size(); ++k) {
      const double d = std::fabs(static_cast<double>(wires[k].size() + 64) - static_cast<double>(size));
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    weight[best] += static_cast<double>(count);
  }
  double total_weight = 0;
  for (double w : weight) total_weight += w;
  {
    SpanScope span(spans, "types.replay");
    for (size_t k = 0; k < kinds.size(); ++k) {
      if (weight[k] == 0) continue;
      const double share = weight[k] / total_weight;
      const types::Message& m = kinds[k];
      const Bytes& w = wires[k];
      out.serialize_us +=
          share * per_op_us(spans, "types.serialize_message",
                            [&] { return static_cast<uint64_t>(types::serialize_message(m).size()); });
      out.parse_us += share * per_op_us(spans, "types.parse_message", [&] {
        return static_cast<uint64_t>(types::parse_message(w).has_value());
      });
      out.artifact_id_us += share * per_op_us(spans, "types.artifact_id",
                                              [&] { return uint64_t{types::artifact_id(w)[0]}; });
    }
  }

  // --- types: pool ----------------------------------------------------------------
  {
    SpanScope span(spans, "types.pool");
    const double adds_per_fill = static_cast<double>(rounds * (3 + 2 * quorum));
    auto fill = [&](types::Pool& pool) {
      uint64_t ok = 0;
      for (const HonestRound& r : chain) {
        ok += pool.add_proposal(r.proposal);
        for (const auto& s : r.notar_shares) ok += pool.add_notarization_share(s);
        ok += pool.add_notarization(r.notarization);
        for (const auto& s : r.final_shares) ok += pool.add_finalization_share(s);
        ok += pool.add_finalization(r.finalization);
      }
      return ok;
    };
    out.pool_add_us = per_op_us(
        spans, "types.Pool::add",
        [&] {
          types::Pool pool(spec.n, quorum);
          return fill(pool);
        },
        adds_per_fill);
    types::Pool pool(spec.n, quorum);
    fill(pool);
    out.pool_query_us = per_op_us(
        spans, "types.Pool::query",
        [&] {
          uint64_t found = 0;
          for (types::Round r = 1; r <= rounds; ++r) {
            found += pool.combinable_notarization_at(r).has_value();
            found += pool.combinable_finalization_above(r - 1).has_value();
            found += pool.notarized_blocks_at(r).size();
            found += pool.valid_blocks_at(r).size();
            found += pool.finalized_above(r - 1).has_value();
          }
          return found;
        },
        static_cast<double>(rounds * 5));
  }

  // --- crypto -----------------------------------------------------------------------
  {
    SpanScope span(spans, "crypto.replay");
    const types::Hash h = last.proposal.block.hash();
    const Bytes nm = types::notarization_message(last.proposal.block.round, 0, h);
    const Bytes bm = types::beacon_message(last.proposal.block.round, types::genesis_beacon());
    const Bytes share = last.notar_shares[1].share;
    auto pairs = as_pairs(last.notar_shares);
    uint32_t signer = 0;
    out.sign_share_us = per_op_us(spans, "crypto.threshold_sign_share", [&] {
      signer = (signer + 1) % static_cast<uint32_t>(spec.n);
      return static_cast<uint64_t>(
          c.threshold_sign_share(crypto::Scheme::kNotary, signer, nm).size());
    });
    out.verify_share_us = per_op_us(spans, "crypto.threshold_verify_share", [&] {
      return static_cast<uint64_t>(c.threshold_verify_share(crypto::Scheme::kNotary, 1, nm, share));
    });
    out.beacon_share_us = per_op_us(spans, "crypto.beacon_sign_share", [&] {
      signer = (signer + 1) % static_cast<uint32_t>(spec.n);
      return static_cast<uint64_t>(c.beacon_sign_share(signer, bm).size());
    });
    out.combine_us = per_op_us(spans, "crypto.threshold_combine_preverified", [&] {
      return static_cast<uint64_t>(
          c.threshold_combine_preverified(crypto::Scheme::kNotary, nm, pairs).size());
    });
    const double sha_us = per_op_us(spans, "crypto.Sha256::hash",
                                    [&] { return uint64_t{crypto::Sha256::hash(payload)[0]}; });
    out.sha256_mb_per_s = static_cast<double>(payload.size()) / sha_us;
    std::vector<double> keygen;
    for (int i = 0; i < 3; ++i) {
      SpanScope k(spans, "crypto.make_provider");
      const double t0 = wall_s();
      auto p = spec.crypto == harness::CryptoKind::kReal
                   ? crypto::make_real_provider(spec.n, spec.t, seed + 1 + static_cast<uint64_t>(i))
                   : crypto::make_fast_provider(spec.n, spec.t, seed + 1 + static_cast<uint64_t>(i));
      keygen.push_back(wall_s() - t0);
      g_sink = g_sink + p->n();
    }
    out.keygen_s = median(keygen);
  }

  // --- codec ------------------------------------------------------------------------
  {
    SpanScope span(spans, "codec.replay");
    const size_t k = rs.k();
    std::vector<codec::Fragment> first_k(fragments.end() - static_cast<ptrdiff_t>(k), fragments.end());
    const codec::MerkleProof proof = tree.prove(1);
    out.rs_encode_us = per_op_us(spans, "codec.ReedSolomon::encode",
                                 [&] { return static_cast<uint64_t>(rs.encode(proposal_wire).size()); });
    out.rs_decode_us = per_op_us(spans, "codec.ReedSolomon::decode", [&] {
      return static_cast<uint64_t>(rs.decode(first_k, proposal_wire.size())->size());
    });
    out.merkle_build_us = per_op_us(spans, "codec.MerkleTree", [&] {
      return uint64_t{codec::MerkleTree(leaves).root()[0]};
    });
    out.merkle_verify_us = per_op_us(spans, "codec.MerkleTree::verify", [&] {
      return static_cast<uint64_t>(codec::MerkleTree::verify(tree.root(), spec.n, leaves[1], proof));
    });
  }
  return out;
}

}  // namespace perfbench
