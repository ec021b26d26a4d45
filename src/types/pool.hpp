// The per-party message pool (paper Section 3.1/3.4).
//
// "Each party has a pool which holds the set of all messages received from
// all parties (including itself)." The pool is a pure data structure: it
// holds PRE-VERIFIED artifacts only. All signature checking happens before
// insertion, in the staged ingress pipeline (src/pipeline/) — decode, dedup,
// verify — so the pool performs no cryptography and holds no provider
// handle; it only needs the protocol parameters n (for signer-range guards)
// and the quorum size (for combinable-share queries). Callers MUST NOT
// insert artifacts whose signatures they have not checked. The pool still
// implements the paper's block classification:
//
//   authentic  — an S_auth authenticator by the proposer is present;
//   valid      — authentic, and the parent is present and notarized
//                (recursively), or the parent is root for round-1 blocks;
//   notarized  — valid + a notarization (n-t threshold signature) present;
//   finalized  — valid + a finalization present.
//
// The paper never deletes from the pool; a real implementation checkpoints
// and garbage-collects (Section 3.1 points at PBFT). prune_below() provides
// that hook so multi-minute simulations stay within memory.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "types/messages.hpp"

namespace icc::types {

class Pool {
 public:
  /// `n` = number of parties (signer/proposer indices must be < n);
  /// `quorum` = shares needed to combine a notarization/finalization (n - t).
  Pool(size_t n, size_t quorum) : n_(n), quorum_(quorum) {}

  // --- insertion (returns true iff the pool state changed) ---
  //
  // Pre-verified contract: every add_* trusts the artifact's signatures.
  // Only structural guards remain (round/index ranges, duplicates). The
  // bundled parent_notarization of a ProposalMsg is NOT processed here —
  // the ingress pipeline verifies and routes it through add_notarization.
  bool add_proposal(const ProposalMsg& msg);
  /// Copy-free variant: `block` must be msg.block (typically an aliasing
  /// shared_ptr into an interned message, DESIGN.md §7); the pool stores the
  /// handle instead of cloning the block. Null falls back to copying.
  bool add_proposal(const ProposalMsg& msg, std::shared_ptr<const Block> block);
  bool add_notarization_share(const NotarizationShareMsg& msg);
  bool add_notarization(const NotarizationMsg& msg);
  bool add_finalization_share(const FinalizationShareMsg& msg);
  bool add_finalization(const FinalizationMsg& msg);

  // --- classification ---
  const Block* block(const Hash& h) const;
  bool is_authentic(const Hash& h) const { return authentic_.count(h) > 0; }
  bool is_valid(const Hash& h) const;
  bool is_notarized(const Hash& h) const;
  bool is_finalized(const Hash& h) const;

  // --- queries used by the protocol logic ---
  /// Hashes of valid round-k blocks currently in the pool.
  std::vector<Hash> valid_blocks_at(Round round) const;
  /// Hashes of notarized round-k blocks (round 0: root).
  std::vector<Hash> notarized_blocks_at(Round round) const;
  /// A valid round-k block with a full set of >= n-t notarization shares but
  /// no notarization yet (Fig. 1 clause (a), combine case).
  std::optional<Hash> combinable_notarization_at(Round round) const;
  /// Same for finalization shares (Fig. 2 case (ii)), restricted to rounds
  /// greater than `above_round`.
  std::optional<Hash> combinable_finalization_above(Round above_round) const;
  /// A finalized block at round > above_round, if any.
  std::optional<Hash> finalized_above(Round above_round) const;

  /// Notarization / finalization shares over the block's canonical message
  /// (round, proposer, hash). Every returned share passed verification
  /// against exactly that message, so it can be combined without a second
  /// check.
  std::vector<std::pair<PartyIndex, Bytes>> notarization_shares(const Block& b) const;
  std::vector<std::pair<PartyIndex, Bytes>> finalization_shares(const Block& b) const;

  /// Distinct-signer counts of the shares over the message (round,
  /// proposer, h), for callers deciding whether one more share is even
  /// useful (a full quorum makes further shares dead weight).
  size_t notarization_share_count(Round round, PartyIndex proposer, const Hash& h) const;
  size_t finalization_share_count(Round round, PartyIndex proposer, const Hash& h) const;

  const NotarizationMsg* notarization_for(const Hash& h) const;
  const FinalizationMsg* finalization_for(const Hash& h) const;

  /// Authenticator bytes for a known block (needed to echo it, Fig. 1 (c)).
  const Bytes* authenticator_for(const Hash& h) const;

  /// The chain of blocks ending at B with rounds > above_round, in ascending
  /// round order (above_round = 0: the whole chain from round 1). Empty if a
  /// needed block is missing from the pool.
  std::vector<const Block*> chain_to(const Hash& h, Round above_round = 0) const;

  /// Drop blocks, shares and aggregates for rounds < round (checkpointing).
  /// Shares and aggregates go by their own round, whether or not their
  /// block ever arrived (an equivocator's second block, a pulled block that
  /// never came, a Byzantine signer's made-up hash).
  /// Nothing below the cutoff is consulted again: is_valid needs the parent
  /// block, which is pruned with its round, so retaining the parent's
  /// notarization could never rescue a verdict (survivors keep their cached
  /// verdicts). Cached validity verdicts of the pruned blocks are dropped
  /// with them, so a pruned hash cannot resurrect as "valid" if its bytes
  /// are replayed after its ancestry is gone.
  void prune_below(Round round);

  /// Install a catch-up checkpoint: a block whose ancestry this pool does
  /// not hold. The CALLER vouches for all three pieces (the CUP threshold
  /// signature binds them and the pipeline verifies each; see messages.hpp).
  /// The block is force-marked valid so subsequent rounds chain off it.
  /// Returns false only on structural mismatch (hash disagreement).
  bool install_checkpoint(const ProposalMsg& proposal, const NotarizationMsg& notarization,
                          const FinalizationMsg& finalization);

  // --- introspection for tests ---
  size_t block_count() const { return blocks_.size(); }
  size_t n() const { return n_; }
  size_t quorum() const { return quorum_; }

 private:
  size_t n_, quorum_;

  // Blocks are held by shared handle: with interning on, the handle aliases
  // the cluster-shared parsed message (one Block for all n pools); without
  // it, the pool owns a per-party copy — same observable behaviour.
  std::unordered_map<Hash, std::shared_ptr<const Block>, HashHasher> blocks_;
  std::map<Round, std::vector<Hash>> blocks_by_round_;
  std::unordered_set<Hash, HashHasher> authentic_;
  std::unordered_map<Hash, Bytes, HashHasher> authenticators_;

  // Shares grouped by the message they sign — (round, proposer, block
  // hash) — ordered by round. The ingress pipeline verifies each share
  // against the message built from its own fields, so a share filed under a
  // block's (round, proposer, hash) is valid for that block's canonical
  // message; one signed over any other triple is never returned for it.
  struct ShareKey {
    PartyIndex proposer;
    Hash hash;
    auto operator<=>(const ShareKey&) const = default;
  };
  using SignerShares = std::map<PartyIndex, Bytes>;
  using ShareIndex = std::map<Round, std::map<ShareKey, SignerShares>>;
  ShareIndex notar_shares_;
  ShareIndex final_shares_;

  static const SignerShares* find_shares(const ShareIndex& index, Round round,
                                         PartyIndex proposer, const Hash& h);

  std::unordered_map<Hash, NotarizationMsg, HashHasher> notarizations_;
  std::unordered_map<Hash, FinalizationMsg, HashHasher> finalizations_;
  std::map<Round, std::vector<Hash>> notarized_by_round_;  // has aggregate (validity checked on query)
  std::map<Round, std::vector<Hash>> finalized_by_round_;

  mutable std::unordered_set<Hash, HashHasher> valid_cache_;
};

}  // namespace icc::types
