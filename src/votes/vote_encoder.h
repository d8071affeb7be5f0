// Encoding user votes as explicit signomial constraints (paper SIV-B, SV,
// Eq. 11/13): the same constraints votes::VoteProgram evaluates by adjoint
// propagation, with every walk of length <= L expanded into a monomial
// (ppr::SymbolicEipd). Nothing on the optimizer, judgment or streaming
// paths builds it: it is the slow oracle the vote program is tested
// against, and the source of program-size counts (terms per batch).

#ifndef KGOV_VOTES_VOTE_ENCODER_H_
#define KGOV_VOTES_VOTE_ENCODER_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "ppr/symbolic_eipd.h"
#include "votes/vote.h"
#include "votes/vote_program.h"

namespace kgov::votes {

class VoteEncoder {
 public:
  /// `graph` is borrowed and must outlive the encoder.
  VoteEncoder(const graph::WeightedDigraph* graph, EncoderOptions options);

  /// Encodes a batch of votes (negative and positive) into one program
  /// of signomial constraints (SV). Malformed votes are skipped.
  Result<EncodedProgram> EncodeBatch(const std::vector<Vote>& votes) const;

 private:
  const graph::WeightedDigraph* graph_;
  EncoderOptions options_;
};

}  // namespace kgov::votes

#endif  // KGOV_VOTES_VOTE_ENCODER_H_
