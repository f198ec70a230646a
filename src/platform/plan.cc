#include "platform/plan.h"

#include <sstream>

namespace streamlib::platform {

TopologyPlan TopologyPlan::FromTopology(const Topology& topology) {
  TopologyPlan plan;
  const auto& components = topology.components();
  plan.nodes_.reserve(components.size());
  for (size_t i = 0; i < components.size(); i++) {
    PlanNode node;
    node.component_index = i;
    node.name = components[i].name;
    node.is_spout = components[i].is_spout;
    node.parallelism = components[i].parallelism;
    plan.nodes_.push_back(std::move(node));
  }
  for (size_t i = 0; i < components.size(); i++) {
    for (const Subscription& sub : components[i].inputs) {
      PlanEdge edge;
      edge.from = topology.IndexOf(sub.source);
      edge.to = i;
      edge.grouping = sub.grouping;
      edge.shards = components[i].parallelism;
      const size_t edge_index = plan.edges_.size();
      plan.nodes_[edge.from].out_edges.push_back(edge_index);
      plan.nodes_[edge.to].in_edges.push_back(edge_index);
      plan.edges_.push_back(std::move(edge));
    }
  }
  return plan;
}

Status TopologyPlan::FusionLegality(const PlanNode& from, const PlanNode& to,
                                    const PlanEdge& edge,
                                    const FusionOptions& options) {
  // Rule 1: fusion is opt-in per engine run.
  if (!options.enable_fusion) {
    return Status::FailedPrecondition("fusion disabled");
  }
  // Rule 2: fused stages run inline on the producer task's thread, which
  // only exists as a 1:1 mapping in dedicated mode. The multiplexed worker
  // pool re-schedules tasks dynamically — fusing there would pin work to
  // the wrong worker.
  if (!options.dedicated_mode) {
    return Status::FailedPrecondition(
        "multiplexed execution: fused stages need a dedicated thread");
  }
  // Rule 3: epoch barriers align per queued edge (EpochAligner counts
  // producer arrivals); a fused edge has no barrier hop to align on.
  if (options.epochs_enabled) {
    return Status::FailedPrecondition(
        "epoch barriers align on queued edges");
  }
  // Rule 4: fields grouping exists to partition keys across consumer
  // tasks; collapsing it in-thread would silently break stateful sharding.
  if (edge.grouping.kind == GroupingKind::kFields) {
    return Status::InvalidArgument(
        "fields grouping requires hash routing across shards");
  }
  // Rule 5: broadcast needs one copy per consumer task — inherently a
  // fan-out delivery, never a 1:1 inline call.
  if (edge.grouping.kind == GroupingKind::kBroadcast) {
    return Status::InvalidArgument("broadcast fans out to every shard");
  }
  // Rule 6: parallelism compatibility. A fused shuffle pairs producer
  // task i with consumer task i — a legal refinement of "uniform random
  // task" — which needs equal parallelism. Global demands one consumer
  // task fed by everything, so fusing needs a single producer task too.
  if (edge.grouping.kind == GroupingKind::kShuffle &&
      from.parallelism != to.parallelism) {
    return Status::InvalidArgument("shuffle with mismatched parallelism (" +
                                   std::to_string(from.parallelism) + " vs " +
                                   std::to_string(to.parallelism) + ")");
  }
  if (edge.grouping.kind == GroupingKind::kGlobal &&
      (from.parallelism != 1 || to.parallelism != 1)) {
    return Status::InvalidArgument(
        "global grouping fuses only at parallelism 1");
  }
  // Rule 7: a consumer with several inputs merges streams from distinct
  // producer threads — it must stay queued so all producers can reach it.
  if (to.in_edges.size() != 1) {
    return Status::InvalidArgument("fan-in: consumer has " +
                                   std::to_string(to.in_edges.size()) +
                                   " input edges");
  }
  // Rule 8: a producer with several output subscriptions routes each emit
  // to every one of them; fusing one arm would starve the others.
  if (from.out_edges.size() != 1) {
    return Status::InvalidArgument("fan-out: producer has " +
                                   std::to_string(from.out_edges.size()) +
                                   " output edges");
  }
  return Status::OK();
}

void TopologyPlan::RunFusionPass(const FusionOptions& options) {
  for (PlanEdge& edge : edges_) {
    const Status legality =
        FusionLegality(nodes_[edge.from], nodes_[edge.to], edge, options);
    if (legality.ok()) {
      edge.channel = EdgeChannel::kFused;
      edge.veto.clear();
    } else {
      edge.channel = EdgeChannel::kQueued;
      edge.veto = legality.message();
    }
    edge.tracked = options.tracked;
    edge.barriered = options.epochs_enabled;
  }

  // Group fused edges into maximal chains. A chain head is a node with a
  // fused out-edge but no fused in-edge; rules 7/8 guarantee each node has
  // at most one fused edge on each side, so chains are simple paths.
  chains_.clear();
  auto fused_out = [&](size_t node) -> const PlanEdge* {
    for (size_t e : nodes_[node].out_edges) {
      if (edges_[e].channel == EdgeChannel::kFused) return &edges_[e];
    }
    return nullptr;
  };
  auto has_fused_in = [&](size_t node) {
    for (size_t e : nodes_[node].in_edges) {
      if (edges_[e].channel == EdgeChannel::kFused) return true;
    }
    return false;
  };
  for (size_t n = 0; n < nodes_.size(); n++) {
    if (has_fused_in(n) || fused_out(n) == nullptr) continue;
    std::vector<size_t> chain{n};
    for (const PlanEdge* e = fused_out(n); e != nullptr;
         e = fused_out(chain.back())) {
      chain.push_back(e->to);
    }
    chains_.push_back(std::move(chain));
  }
}

size_t TopologyPlan::fused_edge_count() const {
  size_t count = 0;
  for (const PlanEdge& edge : edges_) {
    if (edge.channel == EdgeChannel::kFused) count++;
  }
  return count;
}

std::string TopologyPlan::ToString() const {
  std::ostringstream out;
  out << "plan: " << nodes_.size() << " nodes, " << edges_.size()
      << " edges, " << fused_edge_count() << " fused, " << chains_.size()
      << " chains\n";
  for (const PlanEdge& edge : edges_) {
    out << "  " << nodes_[edge.from].name << " -> " << nodes_[edge.to].name
        << " [" << GroupingKindName(edge.grouping.kind) << " x" << edge.shards
        << "] "
        << (edge.channel == EdgeChannel::kFused ? "FUSED" : "queued");
    if (!edge.veto.empty()) out << " (veto: " << edge.veto << ")";
    out << "\n";
  }
  for (const std::vector<size_t>& chain : chains_) {
    out << "  chain:";
    for (size_t n : chain) out << " " << nodes_[n].name;
    out << "\n";
  }
  return out.str();
}

}  // namespace streamlib::platform
