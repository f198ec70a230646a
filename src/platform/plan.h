#ifndef STREAMLIB_PLATFORM_PLAN_H_
#define STREAMLIB_PLATFORM_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "platform/topology.h"

namespace streamlib::platform {

/// How an edge is realized at runtime.
enum class EdgeChannel : uint8_t {
  kQueued,  ///< producer stages into a queue/ring; consumer thread drains
  kFused,   ///< consumer runs inline on its producer task's thread (no queue)
};

/// The engine facts the fusion pass needs, decoupled from EngineConfig so
/// the plan layer has no dependency on engine.h. The engine fills this
/// from its config in BuildTasks; tests construct it directly.
struct FusionOptions {
  bool enable_fusion = true;      ///< master switch (EngineConfig::enable_fusion)
  bool dedicated_mode = true;     ///< ExecutionMode::kDedicated (one thread/task)
};

/// One component of the topology, as a plan node. `component_index` equals
/// the node's own index in TopologyPlan::nodes() — the plan preserves the
/// topology's (topologically sorted) component order.
struct PlanNode {
  size_t component_index = 0;
  std::string name;
  bool is_spout = false;
  uint32_t parallelism = 1;
  std::vector<size_t> in_edges;   ///< indices into TopologyPlan::edges()
  std::vector<size_t> out_edges;  ///< indices into TopologyPlan::edges()
};

/// One subscription edge, annotated with everything the fusion pass and
/// the engine's channel wiring care about.
struct PlanEdge {
  size_t from = 0;  ///< producer node index
  size_t to = 0;    ///< consumer node index
  Grouping grouping;
  uint32_t shards = 1;   ///< consumer parallelism (fan-out of the routing)
  EdgeChannel channel = EdgeChannel::kQueued;
  /// Why the fusion pass left this edge queued (empty when fused or when
  /// the pass never ran). Surfaced in ToString() and the bench JSON so a
  /// "why didn't this edge fuse" question has a first-class answer.
  std::string veto;
};

/// A small dataflow IR over a built Topology: nodes for components, edges
/// for subscriptions, annotated with grouping / shard facts.
/// The fusion pass (DESIGN.md §13) rewrites every edge whose consumer
/// tasks each have exactly one producer task from kQueued to kFused; the
/// engine then delivers over that edge by running the consumer inline on
/// the producer's thread.
class TopologyPlan {
 public:
  /// Lowers a validated topology into the IR. All edges start kQueued.
  static TopologyPlan FromTopology(const Topology& topology);

  /// Decides, for one edge in isolation, whether fusing it is legal under
  /// `options`. OK means legal; otherwise the status message names the
  /// veto (these are the §13 legality rules, in check order). Exposed so
  /// tests can probe each rule directly.
  static Status FusionLegality(const PlanNode& from, const PlanNode& to,
                               const PlanEdge& edge,
                               const FusionOptions& options);

  /// Rewrites every legal edge to kFused (stamping `veto` on the rest).
  /// Idempotent; safe to call with fusion disabled (all edges stay
  /// queued).
  void RunFusionPass(const FusionOptions& options);

  const std::vector<PlanNode>& nodes() const { return nodes_; }
  const std::vector<PlanEdge>& edges() const { return edges_; }

  size_t fused_edge_count() const;

  /// Human-readable dump: one line per edge with channel and veto.
  std::string ToString() const;

 private:
  std::vector<PlanNode> nodes_;
  std::vector<PlanEdge> edges_;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_PLAN_H_
