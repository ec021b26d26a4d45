#include "pipeline/verifier.hpp"

#include "pipeline/intern.hpp"

namespace icc::pipeline {

namespace {
// Relaxed suffices for all counter cells: they are commutative increments
// read only at quiescent points (obs/metrics.hpp memory-order contract).
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

types::Hash Verifier::cache_key(Domain domain, crypto::PartyIndex signer, BytesView message,
                                BytesView signature) {
  crypto::Sha256 h;
  uint8_t header[5] = {static_cast<uint8_t>(domain), static_cast<uint8_t>(signer),
                       static_cast<uint8_t>(signer >> 8), static_cast<uint8_t>(signer >> 16),
                       static_cast<uint8_t>(signer >> 24)};
  h.update(BytesView(header, sizeof(header)));
  // Length-prefix the message so (message, signature) boundaries are
  // unambiguous — without it, moving bytes across the boundary would alias.
  uint8_t len[8];
  for (int i = 0; i < 8; ++i) len[i] = static_cast<uint8_t>(message.size() >> (8 * i));
  h.update(BytesView(len, sizeof(len)));
  h.update(message);
  h.update(signature);
  return h.digest();
}

std::optional<bool> Verifier::lookup(const types::Hash& key) {
  if (!options_.stages) return std::nullopt;
  Shard& s = shard_for(key);
  obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kVerifierCache);
  if (auto it = s.current.find(key); it != s.current.end()) return it->second;
  if (auto it = s.previous.find(key); it != s.previous.end()) return it->second;
  return std::nullopt;
}

void Verifier::remember(const types::Hash& key, bool verdict) {
  if (!options_.stages || options_.cache_capacity == 0) return;
  Shard& s = shard_for(key);
  obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kVerifierCache);
  if (s.current.size() >= rotate_threshold()) {
    s.previous = std::move(s.current);
    s.current.clear();
  }
  s.current[key] = verdict;
}

void Verifier::count_unmemoized(size_t checks) {
  stats_.provider_verifications.fetch_add(checks, kRelaxed);
  if (intern_ != nullptr) intern_->count_real(checks);
}

template <typename Check>
bool Verifier::memoized(Domain domain, crypto::PartyIndex signer, BytesView message,
                        BytesView signature, Check&& check) {
  if (!options_.stages) {
    count_unmemoized(1);
    return check();
  }
  types::Hash key = cache_key(domain, signer, message, signature);
  if (auto verdict = lookup(key)) {
    stats_.cache_hits.fetch_add(1, kRelaxed);
    return *verdict;
  }
  // Logical accounting first: a lone party would verify here, and the
  // per-party stats must not depend on whether the shared memo answers.
  stats_.provider_verifications.fetch_add(1, kRelaxed);
  bool verdict;
  if (intern_ != nullptr) {
    if (auto shared = intern_->verdict(key)) {
      intern_->count_memo_hit();
      verdict = *shared;
    } else {
      intern_->count_real(1);
      verdict = check();
      intern_->remember_verdict(key, verdict);
    }
  } else {
    verdict = check();
  }
  remember(key, verdict);
  return verdict;
}

bool Verifier::verify_auth(crypto::PartyIndex signer, BytesView message,
                           BytesView signature) {
  return memoized(Domain::kAuth, signer, message, signature,
                  [&] { return provider_->verify(signer, message, signature); });
}

bool Verifier::verify_threshold_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                                      BytesView message, BytesView share) {
  return memoized(share_domain(scheme), signer, message, share, [&] {
    return provider_->threshold_verify_share(scheme, signer, message, share);
  });
}

bool Verifier::verify_threshold(crypto::Scheme scheme, BytesView message,
                                BytesView aggregate) {
  // Aggregates have no single signer; index 0xffffffff marks "combined".
  return memoized(agg_domain(scheme), 0xffffffffu, message, aggregate,
                  [&] { return provider_->threshold_verify(scheme, message, aggregate); });
}

bool Verifier::verify_beacon_share(crypto::PartyIndex signer, BytesView message,
                                   BytesView share) {
  return memoized(Domain::kBeaconShare, signer, message, share,
                  [&] { return provider_->beacon_verify_share(signer, message, share); });
}

void Verifier::prime(Domain domain, crypto::PartyIndex signer, BytesView message,
                     BytesView signature) {
  if (!options_.stages) return;
  types::Hash key = cache_key(domain, signer, message, signature);
  remember(key, true);
  stats_.primed.fetch_add(1, kRelaxed);
  // Prime the shared memo too: the signature is valid by construction, so
  // no party in the cluster ever re-verifies it.
  if (intern_ != nullptr) intern_->prime_verdict(key);
}

Bytes Verifier::sign_auth(crypto::PartyIndex signer, BytesView message) {
  Bytes sig = provider_->sign(signer, message);
  prime(Domain::kAuth, signer, message, sig);
  return sig;
}

Bytes Verifier::threshold_sign_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                                     BytesView message) {
  Bytes share = provider_->threshold_sign_share(scheme, signer, message);
  prime(share_domain(scheme), signer, message, share);
  return share;
}

Bytes Verifier::beacon_sign_share(crypto::PartyIndex signer, BytesView message) {
  Bytes share = provider_->beacon_sign_share(signer, message);
  prime(Domain::kBeaconShare, signer, message, share);
  return share;
}

Bytes Verifier::threshold_combine(
    crypto::Scheme scheme, BytesView message,
    std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  if (!options_.stages) {
    // Without memoization the provider's own verify-and-combine is exactly
    // the pre-pipeline behaviour (the shared memo keys off the per-party
    // cache keys, so it is not consulted either; the real checks inside the
    // provider still count toward F-INTERN).
    count_unmemoized(shares.size());
    return provider_->threshold_combine(scheme, message, shares);
  }
  Bytes agg = provider_->threshold_combine_preverified(scheme, message, shares);
  // Prime the aggregate's verdict: our own broadcast of it echoes back.
  // Threshold signatures are unique, so every party combining the same
  // quorum produces these bytes — priming the shared memo saves the
  // aggregate check for the whole cluster.
  if (!agg.empty()) prime(agg_domain(scheme), 0xffffffffu, message, agg);
  return agg;
}

Bytes Verifier::beacon_combine(
    BytesView message, std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  if (!options_.stages) {
    count_unmemoized(shares.size());
    return provider_->beacon_combine(message, shares);
  }
  return provider_->beacon_combine_preverified(message, shares);
}

Verifier::Stats Verifier::stats() const {
  Stats s;
  s.provider_verifications = stats_.provider_verifications.load(kRelaxed);
  s.cache_hits = stats_.cache_hits.load(kRelaxed);
  s.primed = stats_.primed.load(kRelaxed);
  return s;
}

size_t Verifier::cached_verdicts() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kVerifierCache);
    total += s.current.size() + s.previous.size();
  }
  return total;
}

}  // namespace icc::pipeline
