// Adjoint EIPD and the vote program, checked against the slow oracles:
// the signomial walk expansion (ppr::SymbolicEipd via votes::VoteEncoder)
// for values, vector-Jacobian products and edge supports, and the serving
// engine (ppr::EipdEngine) for the forward Phi, bit for bit.

#include "ppr/eipd_adjoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "ppr/symbolic_eipd.h"
#include "votes/vote_encoder.h"
#include "votes/vote_program.h"

namespace kgov::ppr {
namespace {

using graph::EdgeId;
using graph::NodeId;
using graph::WeightedDigraph;

// A small random digraph with self-loops and 2-cycles (walks that repeat
// an edge), zero-weight edges and out-degree-1 sources.
WeightedDigraph RandomGraph(Rng& rng, size_t n) {
  WeightedDigraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    // Every fifth node has exactly one out-edge.
    const size_t degree = u % 5 == 4 ? 1 : 1 + rng.NextIndex(4);
    for (size_t k = 0; k < degree; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextIndex(n));
      const double w = rng.NextIndex(7) == 0 ? 0.0 : rng.Uniform(0.05, 1.0);
      (void)g.AddEdge(u, v, w);  // duplicates are rejected; fine
    }
  }
  return g;
}

QuerySeed RandomSeed(Rng& rng, size_t n) {
  QuerySeed seed;
  const size_t links = 1 + rng.NextIndex(3);
  for (size_t k = 0; k < links; ++k) {
    seed.links.emplace_back(static_cast<NodeId>(rng.NextIndex(n)),
                            rng.Uniform(0.1, 1.0));
  }
  return seed;
}

std::vector<NodeId> RandomAnswers(Rng& rng, size_t n, size_t k) {
  std::vector<NodeId> answers;
  while (answers.size() < k) {
    const NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    if (std::find(answers.begin(), answers.end(), a) == answers.end()) {
      answers.push_back(a);
    }
  }
  return answers;
}

std::vector<votes::Vote> RandomVotes(Rng& rng, size_t n, size_t count) {
  std::vector<votes::Vote> out;
  for (uint32_t id = 0; id < count; ++id) {
    votes::Vote vote;
    vote.id = id;
    vote.query = RandomSeed(rng, n);
    vote.answer_list = RandomAnswers(rng, n, 2 + rng.NextIndex(3));
    vote.best_answer =
        vote.answer_list[rng.NextIndex(vote.answer_list.size())];
    vote.weight = rng.Uniform(0.5, 2.0);
    out.push_back(std::move(vote));
  }
  return out;
}

// |a - b| <= 1e-12 relative to `scale` (the magnitude of the compared
// quantities, so that near-cancelling differences are not over-demanded).
void ExpectClose(double a, double b, double scale, const char* what) {
  EXPECT_LE(std::abs(a - b), 1e-12 * std::max(scale, 1e-300))
      << what << ": " << a << " vs " << b;
}

double MaxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

struct OracleCase {
  int max_length;
  bool fixed_edges;  // edges out of even nodes are fixed
};

class AdjointOracleTest : public ::testing::TestWithParam<OracleCase> {};

// g(x) and one VJP of the vote program against the signomial program's
// Evaluate / AccumulateGradient, at random trial points.
TEST_P(AdjointOracleTest, ValuesAndVjpMatchSignomial) {
  const OracleCase param = GetParam();
  for (uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng(1000 + trial);
    const size_t n = 12 + rng.NextIndex(10);
    WeightedDigraph g = RandomGraph(rng, n);
    std::vector<votes::Vote> batch = RandomVotes(rng, n, 4);

    votes::EncoderOptions options;
    options.symbolic.eipd.max_length = param.max_length;
    options.symbolic.min_path_mass = 0.0;
    if (param.fixed_edges) {
      options.is_variable = [](const WeightedDigraph& gr, EdgeId e) {
        return gr.edge(e).from % 2 == 1;
      };
    }
    graph::CsrSnapshot snapshot(g);
    Result<votes::EncodedProgram> adjoint =
        votes::EncodeVoteProgram(g, snapshot.View(), options, batch);
    Result<votes::EncodedProgram> oracle =
        votes::VoteEncoder(&g, options).EncodeBatch(batch);
    ASSERT_TRUE(adjoint.ok()) << adjoint.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();

    // Same variable set; the orders differ (edge id vs walk order).
    const size_t nv = adjoint->variables.NumVariables();
    ASSERT_EQ(nv, oracle->variables.NumVariables()) << "trial " << trial;
    std::vector<math::VarId> to_oracle(nv);
    for (size_t k = 0; k < nv; ++k) {
      std::optional<math::VarId> var = oracle->variables.Find(
          adjoint->variables.EdgeOf(static_cast<math::VarId>(k)));
      ASSERT_TRUE(var.has_value());
      to_oracle[k] = *var;
    }
    const math::SgpConstraints& program = adjoint->problem.constraint_set();
    const math::SgpConstraints& signomial = oracle->problem.constraint_set();
    ASSERT_EQ(program.size(), signomial.size());

    for (int point = 0; point < 3; ++point) {
      std::vector<double> x(nv), x_oracle(nv);
      for (size_t k = 0; k < nv; ++k) {
        x[k] = point == 0 ? adjoint->problem.initial()[k]
                          : rng.Uniform(1e-4, 1.0);
        x_oracle[to_oracle[k]] = x[k];
      }
      std::vector<double> cot(program.size());
      for (double& c : cot) c = rng.Uniform(-2.0, 2.0);
      const math::ConstraintSet::Cotangent weights =
          [&cot](size_t i, double) { return cot[i]; };

      std::vector<double> values, oracle_values;
      std::vector<double> grad(nv, 0.0), oracle_grad(nv, 0.0);
      program.Evaluate(x, &values, &weights, &grad);
      signomial.Evaluate(x_oracle, &oracle_values, &weights, &oracle_grad);

      const double value_scale = MaxAbs(oracle_values);
      for (size_t i = 0; i < values.size(); ++i) {
        ExpectClose(values[i], oracle_values[i], value_scale, "g");
        EXPECT_EQ(program.weight(i), signomial.weight(i));
      }
      const double grad_scale = MaxAbs(oracle_grad);
      for (size_t k = 0; k < nv; ++k) {
        ExpectClose(grad[k], oracle_grad[to_oracle[k]], grad_scale, "vjp");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AdjointOracleTest,
    ::testing::Values(OracleCase{3, false}, OracleCase{4, false},
                      OracleCase{4, true}, OracleCase{5, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return "L" + std::to_string(info.param.max_length) +
             (info.param.fixed_edges ? "FixedEdges" : "AllVariable");
    });

// The support of one forward and one backward pass is exactly the
// signomial expansion's Set(v_a), for every answer; the union over a
// vote's answers is its E(t).
TEST(EipdAdjointTest, SupportEqualsSymbolicPathEdges) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(77 + trial);
    const size_t n = 10 + rng.NextIndex(12);
    WeightedDigraph g = RandomGraph(rng, n);
    QuerySeed seed = RandomSeed(rng, n);
    std::vector<NodeId> answers = RandomAnswers(rng, n, 3);

    SymbolicEipdOptions options;
    options.eipd.max_length = 2 + static_cast<int>(trial % 4);
    SymbolicEipd symbolic(&g, nullptr, options);
    EdgeVariableMap scratch;
    std::vector<SymbolicAnswer> expected =
        symbolic.Collect(seed, answers, &scratch);

    graph::CsrSnapshot snapshot(g);
    EipdAdjoint adjoint(snapshot.View(), options.eipd);
    AdjointWorkspace ws;
    adjoint.Forward(seed, nullptr, &ws);
    std::vector<EdgeId> all;
    for (const SymbolicAnswer& answer : expected) {
      std::vector<EdgeId> want(answer.path_edges.begin(),
                               answer.path_edges.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(adjoint.SupportEdges({&answer.answer, 1}, nullptr, &ws),
                want)
          << "trial " << trial << " answer " << answer.answer;
      all.insert(all.end(), want.begin(), want.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    EXPECT_EQ(adjoint.SupportEdges(answers, nullptr, &ws), all);

    votes::Vote vote;
    vote.query = seed;
    vote.answer_list = answers;
    vote.best_answer = answers[1];
    EXPECT_EQ(votes::VoteEdgeSets(snapshot.View(), options.eipd, {vote})[0],
              all);
  }
}

// At unchanged weights the forward pass is the serving kernel: Phi equals
// EipdEngine's bit for bit, whether the weights come from the view or
// from a trial point holding the same values.
TEST(EipdAdjointTest, ForwardPhiIsBitwiseEngineScores) {
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(500 + trial);
    const size_t n = 30;
    WeightedDigraph g = RandomGraph(rng, n);
    QuerySeed seed = RandomSeed(rng, n);
    std::vector<NodeId> nodes(n);
    for (NodeId v = 0; v < n; ++v) nodes[v] = v;

    graph::CsrSnapshot snapshot(g);
    EipdOptions eipd;
    eipd.max_length = 5;
    StatusOr<std::vector<double>> scores =
        EipdEngine(snapshot.View(), eipd).Scores(seed, nodes);
    ASSERT_TRUE(scores.ok());

    // Every other edge is a variable holding its current weight.
    std::vector<int32_t> var_of_edge(g.NumEdges(), -1);
    std::vector<double> x;
    for (EdgeId e = 0; e < g.NumEdges(); e += 2) {
      var_of_edge[e] = static_cast<int32_t>(x.size());
      x.push_back(g.Weight(e));
    }
    EipdAdjoint adjoint(snapshot.View(), eipd, var_of_edge.data());
    AdjointWorkspace ws;
    for (const double* point : {static_cast<const double*>(nullptr),
                                static_cast<const double*>(x.data())}) {
      adjoint.Forward(seed, point, &ws);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(std::memcmp(&ws.lane.phi[v], &scores.value()[v],
                              sizeof(double)),
                  0)
            << "trial " << trial << " node " << v;
      }
    }
  }
}

// The gradient of J = sum_a lambda_a Phi(a) against central differences.
TEST(EipdAdjointTest, GradientMatchesFiniteDifferences) {
  Rng rng(9);
  const size_t n = 15;
  WeightedDigraph g = RandomGraph(rng, n);
  QuerySeed seed = RandomSeed(rng, n);
  std::vector<std::pair<NodeId, double>> lambda = {
      {0, 1.0}, {3, -0.5}, {7, 2.0}, {11, 0.25}};
  std::vector<int32_t> var_of_edge(g.NumEdges(), -1);
  std::vector<double> x;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (g.Weight(e) <= 0.0) continue;
    var_of_edge[e] = static_cast<int32_t>(x.size());
    x.push_back(g.Weight(e));
  }
  graph::CsrSnapshot snapshot(g);
  EipdOptions eipd;
  eipd.max_length = 4;
  EipdAdjoint adjoint(snapshot.View(), eipd, var_of_edge.data());
  AdjointWorkspace ws;
  auto objective = [&](const std::vector<double>& point) {
    adjoint.Forward(seed, point.data(), &ws);
    double j = 0.0;
    for (const auto& [node, weight] : lambda) j += weight * ws.lane.phi[node];
    return j;
  };
  objective(x);
  std::vector<double> grad(x.size(), 0.0);
  adjoint.AccumulateGradient(lambda, x.data(), &ws, grad.data());
  const double h = 1e-6;
  for (size_t k = 0; k < x.size(); ++k) {
    std::vector<double> up = x, down = x;
    up[k] += h;
    down[k] -= h;
    EXPECT_NEAR(grad[k], (objective(up) - objective(down)) / (2.0 * h), 1e-8)
        << "variable " << k;
  }
}

// Workspaces reset in O(touched): a workspace reused across seeds and
// across graphs of different sizes gives what a fresh one gives.
TEST(EipdAdjointTest, ReusedWorkspaceMatchesFreshOne) {
  AdjointWorkspace reused;
  for (uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(31 + trial);
    const size_t n = trial % 2 == 0 ? 20 : 35;
    WeightedDigraph g = RandomGraph(rng, n);
    QuerySeed seed = RandomSeed(rng, n);
    std::vector<std::pair<NodeId, double>> lambda = {{1, 1.0}, {2, -1.0}};
    std::vector<int32_t> var_of_edge(g.NumEdges());
    std::vector<double> x(g.NumEdges());
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      var_of_edge[e] = static_cast<int32_t>(e);
      x[e] = std::max(g.Weight(e), 1e-4);
    }
    graph::CsrSnapshot snapshot(g);
    EipdAdjoint adjoint(snapshot.View(), EipdOptions{}, var_of_edge.data());
    AdjointWorkspace fresh;
    std::vector<double> a(x.size(), 0.0), b(x.size(), 0.0);
    adjoint.Forward(seed, x.data(), &reused);
    adjoint.AccumulateGradient(lambda, x.data(), &reused, a.data());
    adjoint.Forward(seed, x.data(), &fresh);
    adjoint.AccumulateGradient(lambda, x.data(), &fresh, b.data());
    EXPECT_EQ(a, b) << "trial " << trial;
    EXPECT_EQ(reused.lane.phi, fresh.lane.phi);
  }
}

// An adjoint told which nodes the caller reads walks only the edges into
// them on its last hop. Every quantity it serves for those nodes must be
// bitwise what the untargeted adjoint gives: Phi at each target, the
// gradient of a lambda over targets, and the support of any target
// subset. The graphs have zero-weight edges, self-loops and 2-cycles;
// the targets include nodes with out-edges and a node no walk reaches.
TEST(EipdAdjointTest, TargetedAdjointIsBitwiseUntargeted) {
  for (uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(4100 + trial);
    const size_t n = 10 + rng.NextIndex(20);
    WeightedDigraph g = RandomGraph(rng, n);
    const NodeId unreachable = g.AddNode();  // no in-edges, never seeded
    ASSERT_TRUE(g.AddEdge(unreachable, 0, 0.5).ok());
    QuerySeed seed = RandomSeed(rng, n);
    std::vector<NodeId> targets = RandomAnswers(rng, n, 1 + rng.NextIndex(4));
    targets.push_back(unreachable);

    std::vector<int32_t> var_of_edge(g.NumEdges(), -1);
    std::vector<double> x;
    for (EdgeId e = 0; e < g.NumEdges(); e += 2) {
      var_of_edge[e] = static_cast<int32_t>(x.size());
      x.push_back(rng.Uniform(1e-4, 1.0));
    }
    std::vector<std::pair<NodeId, double>> lambda;
    for (NodeId t : targets) lambda.emplace_back(t, rng.Uniform(-2.0, 2.0));

    graph::CsrSnapshot snapshot(g);
    EipdOptions eipd;
    eipd.max_length = 1 + static_cast<int>(trial % 5);
    const EipdAdjoint full(snapshot.View(), eipd, var_of_edge.data());
    const EipdAdjoint targeted(snapshot.View(), eipd, var_of_edge.data(),
                               targets);
    for (const double* point : {static_cast<const double*>(nullptr),
                                static_cast<const double*>(x.data())}) {
      AdjointWorkspace ws_full, ws_targeted;
      full.Forward(seed, point, &ws_full);
      targeted.Forward(seed, point, &ws_targeted);
      for (NodeId t : targets) {
        EXPECT_EQ(std::memcmp(&ws_full.lane.phi[t], &ws_targeted.lane.phi[t],
                              sizeof(double)),
                  0)
            << "trial " << trial << " target " << t;
      }

      std::vector<double> grad_full(x.size(), 0.0);
      std::vector<double> grad_targeted(x.size(), 0.0);
      full.AccumulateGradient(lambda, point, &ws_full, grad_full.data());
      targeted.AccumulateGradient(lambda, point, &ws_targeted,
                                  grad_targeted.data());
      EXPECT_EQ(std::memcmp(grad_full.data(), grad_targeted.data(),
                            x.size() * sizeof(double)),
                0)
          << "trial " << trial;

      EXPECT_EQ(full.SupportEdges(targets, point, &ws_full),
                targeted.SupportEdges(targets, point, &ws_targeted))
          << "trial " << trial;
      for (const NodeId& t : targets) {
        EXPECT_EQ(full.SupportEdges({&t, 1}, point, &ws_full),
                  targeted.SupportEdges({&t, 1}, point, &ws_targeted))
            << "trial " << trial << " target " << t;
      }
    }
  }
}

}  // namespace
}  // namespace kgov::ppr

namespace kgov::votes {
namespace {

// Fixture graph where the query reaches answers 3 and 4.
//   0 -> 1 (0.5), 0 -> 2 (0.5), 1 -> 3 (1.0), 2 -> 4 (0.6), 2 -> 1 (0.4)
graph::WeightedDigraph MakeFixture() {
  graph::WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 0.4).ok());
  return g;
}

Vote MakeNegativeVote() {
  Vote vote;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = 4;
  return vote;
}

ppr::EipdOptions Eipd() {
  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  return eipd;
}

TEST(VoteProgramTest, EdgeSetsCoverAllAnswers) {
  graph::WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot snapshot(g);
  std::vector<std::vector<graph::EdgeId>> sets =
      VoteEdgeSets(snapshot.View(), Eipd(), {MakeNegativeVote()});
  EXPECT_EQ(sets[0].size(), 5u);  // all fixture edges lie on walks to {3,4}
}

TEST(VoteProgramTest, EdgeSetsEmptyForMalformedVote) {
  graph::WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot snapshot(g);
  Vote bad;
  EXPECT_TRUE(VoteEdgeSets(snapshot.View(), Eipd(), {bad})[0].empty());
}

TEST(VoteProgramTest, RejectsVotesOutsideTheGraph) {
  graph::WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot snapshot(g);
  Vote vote = MakeNegativeVote();
  vote.answer_list = {3, 9};
  vote.best_answer = 9;
  EncoderOptions options;
  options.symbolic.eipd = Eipd();
  EXPECT_FALSE(
      EncodeVoteProgram(g, snapshot.View(), options, {vote}).ok());
  EXPECT_TRUE(VoteEdgeSets(snapshot.View(), Eipd(), {vote})[0].empty());
}

TEST(VoteProgramTest, NegativeVoteViolatedAtCurrentWeights) {
  graph::WeightedDigraph g = MakeFixture();
  graph::CsrSnapshot snapshot(g);
  EncoderOptions options;
  options.symbolic.eipd = Eipd();
  Result<EncodedProgram> program =
      EncodeVoteProgram(g, snapshot.View(), options, {MakeNegativeVote()});
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->problem.num_constraints(), 1u);
  EXPECT_TRUE(program->problem.Validate().ok());
  std::vector<double> values;
  program->problem.constraint_set().Evaluate(program->problem.initial(),
                                             &values, nullptr, nullptr);
  EXPECT_GT(values[0], 0.0);  // 3 outranks the voted best answer 4
}

}  // namespace
}  // namespace kgov::votes
