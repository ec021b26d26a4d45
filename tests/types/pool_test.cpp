#include "types/pool.hpp"

#include <gtest/gtest.h>

#include <string>

namespace icc::types {
namespace {

/// The pool is a pure data structure under the pre-verified contract: it
/// never checks signatures, so these tests build artifacts with dummy
/// signature bytes and exercise only structural behaviour (classification,
/// share accounting, ancestry walks, pruning). Signature rejection is
/// covered by the ingress pipeline tests (tests/pipeline/).
struct PoolFixture : ::testing::Test {
  static constexpr size_t kN = 4;
  static constexpr size_t kQuorum = 3;  // n - t with t = 1
  Pool pool{kN, kQuorum};

  Block make_block(Round round, PartyIndex proposer, const Hash& parent,
                   std::string_view payload = "p") {
    Block b;
    b.round = round;
    b.proposer = proposer;
    b.parent_hash = parent;
    b.payload = str_bytes(payload);
    return b;
  }

  ProposalMsg make_proposal(const Block& b) {
    ProposalMsg m;
    m.block = b;
    m.authenticator = str_bytes("auth");  // pre-verified upstream
    return m;
  }

  NotarizationShareMsg make_notar_share(const Block& b, PartyIndex signer) {
    return {b.round, b.proposer, b.hash(), signer, str_bytes("share")};
  }

  NotarizationMsg make_notarization(const Block& b) {
    return {b.round, b.proposer, b.hash(), str_bytes("agg-notar")};
  }

  FinalizationMsg make_finalization(const Block& b) {
    return {b.round, b.proposer, b.hash(), str_bytes("agg-final")};
  }
};

TEST_F(PoolFixture, RootIsAlwaysNotarizedAndFinalized) {
  EXPECT_TRUE(pool.is_notarized(root_hash()));
  EXPECT_TRUE(pool.is_finalized(root_hash()));
  EXPECT_EQ(pool.notarized_blocks_at(0), std::vector<Hash>{root_hash()});
}

TEST_F(PoolFixture, ProposalAccepted) {
  Block b = make_block(1, 0, root_hash());
  EXPECT_TRUE(pool.add_proposal(make_proposal(b)));
  EXPECT_TRUE(pool.is_authentic(b.hash()));
  EXPECT_TRUE(pool.is_valid(b.hash()));  // round-1 child of root
  EXPECT_FALSE(pool.is_notarized(b.hash()));
  // Exact duplicate is a no-op.
  EXPECT_FALSE(pool.add_proposal(make_proposal(b)));
}

TEST_F(PoolFixture, StructuralGuards) {
  // Proposer index out of range.
  Block b = make_block(1, kN, root_hash());
  EXPECT_FALSE(pool.add_proposal(make_proposal(b)));
  // Round 0 is reserved for the root.
  Block r0 = make_block(0, 0, root_hash());
  EXPECT_FALSE(pool.add_proposal(make_proposal(r0)));
  // Share with out-of-range signer.
  Block ok = make_block(1, 0, root_hash());
  pool.add_proposal(make_proposal(ok));
  auto share = make_notar_share(ok, 0);
  share.signer = kN;
  EXPECT_FALSE(pool.add_notarization_share(share));
}

TEST_F(PoolFixture, ValidityRequiresNotarizedParent) {
  Block parent = make_block(1, 0, root_hash());
  Block child = make_block(2, 1, parent.hash());
  pool.add_proposal(make_proposal(parent));
  pool.add_proposal(make_proposal(child));
  EXPECT_TRUE(pool.is_authentic(child.hash()));
  EXPECT_FALSE(pool.is_valid(child.hash()));  // parent not notarized yet
  pool.add_notarization(make_notarization(parent));
  EXPECT_TRUE(pool.is_valid(child.hash()));
  EXPECT_TRUE(pool.is_notarized(parent.hash()));
}

TEST_F(PoolFixture, WrongRoundParentRejected) {
  Block parent = make_block(1, 0, root_hash());
  pool.add_proposal(make_proposal(parent));
  pool.add_notarization(make_notarization(parent));
  Block bad = make_block(3, 1, parent.hash());  // skips round 2
  pool.add_proposal(make_proposal(bad));
  EXPECT_FALSE(pool.is_valid(bad.hash()));
}

TEST_F(PoolFixture, NotarizationShareAccountingAndCombinable) {
  Block b = make_block(1, 0, root_hash());
  pool.add_proposal(make_proposal(b));
  EXPECT_FALSE(pool.combinable_notarization_at(1).has_value());
  pool.add_notarization_share(make_notar_share(b, 0));
  pool.add_notarization_share(make_notar_share(b, 1));
  EXPECT_FALSE(pool.combinable_notarization_at(1).has_value());  // quorum = 3
  pool.add_notarization_share(make_notar_share(b, 2));
  auto h = pool.combinable_notarization_at(1);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(*h, b.hash());
  EXPECT_EQ(pool.notarization_shares(b).size(), 3u);
}

TEST_F(PoolFixture, DuplicateSharesIgnored) {
  Block b = make_block(1, 0, root_hash());
  pool.add_proposal(make_proposal(b));
  EXPECT_TRUE(pool.add_notarization_share(make_notar_share(b, 0)));
  EXPECT_FALSE(pool.add_notarization_share(make_notar_share(b, 0)));
  EXPECT_EQ(pool.notarization_shares(b).size(), 1u);
}

TEST_F(PoolFixture, FinalizationFlow) {
  Block b = make_block(1, 0, root_hash());
  pool.add_proposal(make_proposal(b));
  pool.add_notarization(make_notarization(b));
  EXPECT_FALSE(pool.is_finalized(b.hash()));
  pool.add_finalization(make_finalization(b));
  EXPECT_TRUE(pool.is_finalized(b.hash()));
  auto f = pool.finalized_above(0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, b.hash());
  EXPECT_FALSE(pool.finalized_above(1).has_value());
}

TEST_F(PoolFixture, ChainToWalksAncestry) {
  Block b1 = make_block(1, 0, root_hash());
  Block b2 = make_block(2, 1, b1.hash());
  Block b3 = make_block(3, 2, b2.hash());
  pool.add_proposal(make_proposal(b1));
  pool.add_notarization(make_notarization(b1));
  pool.add_proposal(make_proposal(b2));
  pool.add_notarization(make_notarization(b2));
  pool.add_proposal(make_proposal(b3));

  auto chain = pool.chain_to(b3.hash());
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->round, 1u);
  EXPECT_EQ(chain[2]->round, 3u);

  auto suffix = pool.chain_to(b3.hash(), 1);
  ASSERT_EQ(suffix.size(), 2u);
  EXPECT_EQ(suffix[0]->round, 2u);
}

TEST_F(PoolFixture, PruneDropsOldBlocksAndAggregates) {
  Block b1 = make_block(1, 0, root_hash());
  Block b2 = make_block(2, 1, b1.hash());
  pool.add_proposal(make_proposal(b1));
  pool.add_notarization(make_notarization(b1));
  pool.add_proposal(make_proposal(b2));
  EXPECT_TRUE(pool.is_valid(b2.hash()));

  pool.prune_below(2);
  EXPECT_EQ(pool.block(b1.hash()), nullptr);
  EXPECT_NE(pool.block(b2.hash()), nullptr);
  // The pruned round's aggregate goes with its block: soak runs would
  // otherwise accrete one notarization per round forever.
  EXPECT_EQ(pool.notarization_for(b1.hash()), nullptr);
  EXPECT_TRUE(pool.notarized_blocks_at(1).empty());
  // Validity of the survivor is preserved via the cached verdict.
  EXPECT_TRUE(pool.is_valid(b2.hash()));
}

TEST_F(PoolFixture, PruneDropsStaleValidityVerdicts) {
  // Regression: cached validity of a pruned block must not survive the
  // prune. If the same block bytes are replayed after its ancestry is gone,
  // the pool must re-derive validity (and fail, since the parent block is no
  // longer present) rather than resurrect the stale cached verdict.
  Block b1 = make_block(1, 0, root_hash());
  Block b2 = make_block(2, 1, b1.hash());
  pool.add_proposal(make_proposal(b1));
  pool.add_notarization(make_notarization(b1));
  pool.add_proposal(make_proposal(b2));
  pool.add_notarization(make_notarization(b2));
  ASSERT_TRUE(pool.is_valid(b1.hash()));  // populate the validity cache
  ASSERT_TRUE(pool.is_valid(b2.hash()));

  pool.prune_below(3);  // drops both blocks and their aggregates
  EXPECT_EQ(pool.block(b2.hash()), nullptr);

  // Replay b2's proposal alone: its parent block b1 is gone, so validity
  // cannot be established. Before the fix the stale cache said "valid".
  pool.add_proposal(make_proposal(b2));
  EXPECT_FALSE(pool.is_valid(b2.hash()));
}

TEST_F(PoolFixture, PruneDropsSharesWhoseBlockNeverArrived) {
  // Shares for blocks the pool never holds (an equivocator's second block,
  // a pulled block that never came, a Byzantine signer's made-up hash)
  // must go with their round, or a long run accretes them forever.
  std::vector<Block> orphans;
  for (uint32_t i = 0; i < 1000; ++i) {
    orphans.push_back(make_block(1 + i, i % kN, root_hash(), "orphan" + std::to_string(i)));
    const Block& b = orphans.back();
    pool.add_notarization_share(make_notar_share(b, 0));
    pool.add_finalization_share({b.round, b.proposer, b.hash(), 1, str_bytes("share")});
  }
  ASSERT_EQ(pool.notarization_shares(orphans.front()).size(), 1u);
  ASSERT_EQ(pool.finalization_shares(orphans.back()).size(), 1u);

  pool.prune_below(2000);
  size_t left = 0;
  for (const Block& b : orphans)
    left += pool.notarization_shares(b).size() + pool.finalization_shares(b).size();
  EXPECT_EQ(left, 0u);
}

TEST_F(PoolFixture, SharesOverAnotherMessageAreNeverReturnedForTheBlock) {
  // A share signed over (round', proposer', h) verifies at ingress but is
  // not a share of h's canonical message; the pool must not hand it to a
  // combine for the block, nor count it toward its quorum.
  Block b = make_block(2, 1, root_hash());
  pool.add_notarization_share(make_notar_share(b, 0));
  pool.add_notarization_share({b.round + 1, b.proposer, b.hash(), 1, str_bytes("share")});
  pool.add_notarization_share({b.round, b.proposer + 1, b.hash(), 2, str_bytes("share")});
  EXPECT_EQ(pool.notarization_shares(b).size(), 1u);
  EXPECT_EQ(pool.notarization_share_count(b.round, b.proposer, b.hash()), 1u);
}

TEST_F(PoolFixture, EquivocatingBlocksBothTracked) {
  Block a = make_block(1, 0, root_hash(), "a");
  Block b = make_block(1, 0, root_hash(), "b");
  pool.add_proposal(make_proposal(a));
  pool.add_proposal(make_proposal(b));
  EXPECT_EQ(pool.valid_blocks_at(1).size(), 2u);
}

TEST_F(PoolFixture, CheckpointInstallForcesValidity) {
  // A checkpoint block's ancestry is absent by construction; install must
  // mark it valid so later rounds can chain off it.
  Block far = make_block(50, 2, Hash{});  // unknown parent
  auto pm = make_proposal(far);
  EXPECT_TRUE(pool.install_checkpoint(pm, make_notarization(far), make_finalization(far)));
  EXPECT_TRUE(pool.is_valid(far.hash()));
  EXPECT_TRUE(pool.is_notarized(far.hash()));
  EXPECT_TRUE(pool.is_finalized(far.hash()));
  // Hash disagreement between pieces is rejected.
  Block other = make_block(51, 3, far.hash());
  auto bad_notar = make_notarization(other);
  EXPECT_FALSE(pool.install_checkpoint(pm, bad_notar, make_finalization(far)));
}

}  // namespace
}  // namespace icc::types
