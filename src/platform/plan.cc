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
  // Rule 1: the master switch (on by default; turning it off forces every
  // edge through a queue).
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
  // Rule 3: fused delivery runs the consumer inline on its producer
  // task's thread, so every consumer task must be fed by exactly one
  // producer task. A single-input consumer meets that when the producer
  // has parallelism 1 (its own routing picks among the consumer tasks,
  // whatever the grouping) or over an equal-parallelism shuffle, which
  // pairs producer task i with consumer task i. Everything else merges
  // streams from several producer threads and stays queued.
  if (to.in_edges.size() != 1) {
    return Status::InvalidArgument("fan-in: consumer has " +
                                   std::to_string(to.in_edges.size()) +
                                   " input edges");
  }
  const bool paired = edge.grouping.kind == GroupingKind::kShuffle &&
                      from.parallelism == to.parallelism;
  if (from.parallelism != 1 && !paired) {
    return Status::InvalidArgument(
        "fan-in: " + std::to_string(from.parallelism) +
        " producer tasks feed each consumer task over a " +
        GroupingKindName(edge.grouping.kind) + " edge");
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
      << " edges, " << fused_edge_count() << " fused\n";
  for (const PlanEdge& edge : edges_) {
    out << "  " << nodes_[edge.from].name << " -> " << nodes_[edge.to].name
        << " [" << GroupingKindName(edge.grouping.kind) << " x" << edge.shards
        << "] "
        << (edge.channel == EdgeChannel::kFused ? "FUSED" : "queued");
    if (!edge.veto.empty()) out << " (veto: " << edge.veto << ")";
    out << "\n";
  }
  return out.str();
}

}  // namespace streamlib::platform
