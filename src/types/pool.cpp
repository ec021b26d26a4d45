#include "types/pool.hpp"

#include <algorithm>

namespace icc::types {

const Block* Pool::block(const Hash& h) const {
  auto it = blocks_.find(h);
  return it == blocks_.end() ? nullptr : it->second.get();
}

bool Pool::add_proposal(const ProposalMsg& msg) { return add_proposal(msg, nullptr); }

bool Pool::add_proposal(const ProposalMsg& msg, std::shared_ptr<const Block> block) {
  const Block& b = msg.block;
  if (b.round < 1 || b.proposer >= n_) return false;

  Hash h = b.hash();
  if (blocks_.count(h)) return false;

  if (!block) block = std::make_shared<const Block>(b);
  blocks_.emplace(h, std::move(block));
  blocks_by_round_[b.round].push_back(h);
  authentic_.insert(h);
  authenticators_.emplace(h, msg.authenticator);
  return true;
}

const Pool::SignerShares* Pool::find_shares(const ShareIndex& index, Round round,
                                            PartyIndex proposer, const Hash& h) {
  auto by_round = index.find(round);
  if (by_round == index.end()) return nullptr;
  auto it = by_round->second.find(ShareKey{proposer, h});
  return it == by_round->second.end() ? nullptr : &it->second;
}

bool Pool::add_notarization_share(const NotarizationShareMsg& msg) {
  if (msg.signer >= n_) return false;
  auto& set = notar_shares_[msg.round][ShareKey{msg.proposer, msg.block_hash}];
  return set.emplace(msg.signer, msg.share).second;
}

bool Pool::add_notarization(const NotarizationMsg& msg) {
  if (notarizations_.count(msg.block_hash)) return false;
  notarizations_.emplace(msg.block_hash, msg);
  notarized_by_round_[msg.round].push_back(msg.block_hash);
  return true;
}

bool Pool::add_finalization_share(const FinalizationShareMsg& msg) {
  if (msg.signer >= n_) return false;
  auto& set = final_shares_[msg.round][ShareKey{msg.proposer, msg.block_hash}];
  return set.emplace(msg.signer, msg.share).second;
}

bool Pool::add_finalization(const FinalizationMsg& msg) {
  if (finalizations_.count(msg.block_hash)) return false;
  finalizations_.emplace(msg.block_hash, msg);
  finalized_by_round_[msg.round].push_back(msg.block_hash);
  return true;
}

bool Pool::is_valid(const Hash& h) const {
  if (valid_cache_.count(h)) return true;
  const Block* b = block(h);
  if (!b || !authentic_.count(h)) return false;
  bool parent_ok;
  if (b->round == 1) {
    parent_ok = (b->parent_hash == root_hash());
  } else {
    const Block* parent = block(b->parent_hash);
    parent_ok = parent && parent->round == b->round - 1 && is_valid(b->parent_hash) &&
                notarizations_.count(b->parent_hash) > 0;
  }
  if (!parent_ok) return false;
  valid_cache_.insert(h);
  return true;
}

bool Pool::is_notarized(const Hash& h) const {
  if (h == root_hash()) return true;
  return is_valid(h) && notarizations_.count(h) > 0;
}

bool Pool::is_finalized(const Hash& h) const {
  if (h == root_hash()) return true;
  return is_valid(h) && finalizations_.count(h) > 0;
}

std::vector<Hash> Pool::valid_blocks_at(Round round) const {
  std::vector<Hash> out;
  auto it = blocks_by_round_.find(round);
  if (it == blocks_by_round_.end()) return out;
  for (const Hash& h : it->second)
    if (is_valid(h)) out.push_back(h);
  return out;
}

std::vector<Hash> Pool::notarized_blocks_at(Round round) const {
  if (round == 0) return {root_hash()};
  std::vector<Hash> out;
  auto it = notarized_by_round_.find(round);
  if (it == notarized_by_round_.end()) return out;
  for (const Hash& h : it->second)
    if (is_notarized(h)) out.push_back(h);
  return out;
}

std::optional<Hash> Pool::combinable_notarization_at(Round round) const {
  auto it = blocks_by_round_.find(round);
  if (it == blocks_by_round_.end()) return std::nullopt;
  auto shares = notar_shares_.find(round);
  if (shares == notar_shares_.end()) return std::nullopt;
  for (const Hash& h : it->second) {
    if (notarizations_.count(h)) continue;
    auto sh = shares->second.find(ShareKey{block(h)->proposer, h});
    if (sh == shares->second.end() || sh->second.size() < quorum_) continue;
    if (is_valid(h)) return h;
  }
  return std::nullopt;
}

std::optional<Hash> Pool::combinable_finalization_above(Round above_round) const {
  for (auto it = final_shares_.upper_bound(above_round); it != final_shares_.end(); ++it) {
    for (const auto& [key, shares] : it->second) {
      if (shares.size() < quorum_) continue;
      if (finalizations_.count(key.hash)) continue;
      // Only shares over the block's own canonical message count.
      const Block* b = block(key.hash);
      if (!b || b->round != it->first || b->proposer != key.proposer) continue;
      if (is_valid(key.hash)) return key.hash;
    }
  }
  return std::nullopt;
}

std::optional<Hash> Pool::finalized_above(Round above_round) const {
  for (auto it = finalized_by_round_.upper_bound(above_round); it != finalized_by_round_.end();
       ++it) {
    for (const Hash& h : it->second)
      if (is_finalized(h)) return h;
  }
  return std::nullopt;
}

std::vector<std::pair<PartyIndex, Bytes>> Pool::notarization_shares(const Block& b) const {
  const SignerShares* set = find_shares(notar_shares_, b.round, b.proposer, b.hash());
  if (set == nullptr) return {};
  return {set->begin(), set->end()};
}

std::vector<std::pair<PartyIndex, Bytes>> Pool::finalization_shares(const Block& b) const {
  const SignerShares* set = find_shares(final_shares_, b.round, b.proposer, b.hash());
  if (set == nullptr) return {};
  return {set->begin(), set->end()};
}

size_t Pool::notarization_share_count(Round round, PartyIndex proposer, const Hash& h) const {
  const SignerShares* set = find_shares(notar_shares_, round, proposer, h);
  return set == nullptr ? 0 : set->size();
}

size_t Pool::finalization_share_count(Round round, PartyIndex proposer, const Hash& h) const {
  const SignerShares* set = find_shares(final_shares_, round, proposer, h);
  return set == nullptr ? 0 : set->size();
}

const NotarizationMsg* Pool::notarization_for(const Hash& h) const {
  auto it = notarizations_.find(h);
  return it == notarizations_.end() ? nullptr : &it->second;
}

const FinalizationMsg* Pool::finalization_for(const Hash& h) const {
  auto it = finalizations_.find(h);
  return it == finalizations_.end() ? nullptr : &it->second;
}

const Bytes* Pool::authenticator_for(const Hash& h) const {
  auto it = authenticators_.find(h);
  return it == authenticators_.end() ? nullptr : &it->second;
}

std::vector<const Block*> Pool::chain_to(const Hash& h, Round above_round) const {
  std::vector<const Block*> chain;
  Hash cur = h;
  while (cur != root_hash()) {
    const Block* b = block(cur);
    if (!b) return {};  // incomplete chain (e.g. pruned)
    if (b->round <= above_round) break;
    chain.push_back(b);
    if (b->round == 1) {
      if (b->parent_hash != root_hash()) return {};
      break;
    }
    cur = b->parent_hash;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

bool Pool::install_checkpoint(const ProposalMsg& proposal,
                              const NotarizationMsg& notarization,
                              const FinalizationMsg& finalization) {
  const Hash h = proposal.block.hash();
  if (notarization.block_hash != h || finalization.block_hash != h) return false;
  if (!add_proposal(proposal) && !blocks_.count(h)) return false;  // structurally bad
  if (!notarizations_.count(h)) add_notarization(notarization);
  if (!finalizations_.count(h)) add_finalization(finalization);
  // The ancestry is not present; the CUP's threshold signature vouches for
  // the block, so validity is granted directly.
  valid_cache_.insert(h);
  return true;
}

void Pool::prune_below(Round round) {
  for (auto it = blocks_by_round_.begin();
       it != blocks_by_round_.end() && it->first < round;) {
    for (const Hash& h : it->second) {
      blocks_.erase(h);
      authentic_.erase(h);
      authenticators_.erase(h);
      // The validity verdict must go with the block: a stale entry would
      // make a replayed copy of the pruned block look valid even though its
      // ancestry is no longer checkable.
      valid_cache_.erase(h);
    }
    it = blocks_by_round_.erase(it);
  }
  // Shares and aggregates go with their own rounds, not blocks_by_round_:
  // either can be added without its block ever arriving, and a
  // per-block-hash erase would strand such entries forever (the pool lives
  // for millions of rounds in soak runs). No surviving block's validity
  // consults a pruned round's notarization — is_valid needs the parent
  // *block* too, and that is already gone.
  notar_shares_.erase(notar_shares_.begin(), notar_shares_.lower_bound(round));
  final_shares_.erase(final_shares_.begin(), final_shares_.lower_bound(round));
  for (auto it = notarized_by_round_.begin();
       it != notarized_by_round_.end() && it->first < round;) {
    for (const Hash& h : it->second) notarizations_.erase(h);
    it = notarized_by_round_.erase(it);
  }
  for (auto it = finalized_by_round_.begin();
       it != finalized_by_round_.end() && it->first < round;) {
    for (const Hash& h : it->second) finalizations_.erase(h);
    it = finalized_by_round_.erase(it);
  }
}

}  // namespace icc::types
