#include "stream/session.h"

namespace acp::stream {

namespace {
SessionRecord make_record(const StreamSystem& sys, SessionId id, RequestId request,
                          const ComponentGraph& cg, double now, double end, bool probed) {
  SessionRecord rec;
  rec.id = id;
  rec.request = request;
  rec.start_time = now;
  rec.planned_end_time = end;
  rec.components = cg.components();
  rec.probed = probed;
  // Snapshot the placement: the Request/FunctionGraph may be gone by the
  // time a crash forces a repair, so the record must be self-contained.
  const FunctionGraph& fg = cg.function_graph();
  rec.placements.reserve(fg.node_count());
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const ComponentId c = cg.component_at(i);
    rec.placements.push_back(PlacedComponent{i, c, sys.component(c).node, fg.node(i).required});
  }
  rec.links.reserve(fg.edge_count());
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    rec.links.push_back(PlacedLink{e, edge.from, edge.to,
                                   sys.component(cg.component_at(edge.from)).node,
                                   sys.component(cg.component_at(edge.to)).node,
                                   edge.required_bandwidth_kbps});
  }
  return rec;
}
}  // namespace

SessionId SessionTable::commit_probed(RequestId request, const ComponentGraph& cg, double now,
                                      double planned_end_time) {
  ACP_REQUIRE(cg.fully_assigned());
  const FunctionGraph& fg = cg.function_graph();
  const SessionId id = allocate_id();

  sys_->reserve_session_records(id, cg);

  bool ok = true;
  // Confirm component reservations.
  for (FnNodeIndex i = 0; ok && i < fg.node_count(); ++i) {
    const NodeId node = sys_->component(cg.component_at(i)).node;
    ok = sys_->confirm_node(request, node_tag(i), node, id, now);
  }
  // Confirm virtual-link bandwidth reservations.
  for (FnEdgeIndex e = 0; ok && e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = sys_->component(cg.component_at(edge.from)).node;
    const NodeId b = sys_->component(cg.component_at(edge.to)).node;
    ok = sys_->confirm_virtual_link(request, link_tag(fg, e), a, b, id, now);
  }

  // Either way, the request's remaining transients (losing candidates, or
  // everything on failure) are dropped.
  sys_->cancel_request(request);

  if (!ok) {
    sys_->release_session(id);  // roll back partial confirms
    return kNullSession;
  }
  records_.emplace(id, make_record(*sys_, id, request, cg, now, planned_end_time, true));
  return id;
}

SessionId SessionTable::commit_direct(RequestId request, const ComponentGraph& cg, double now,
                                      double planned_end_time) {
  ACP_REQUIRE(cg.fully_assigned());
  const SessionId id = allocate_id();

  bool ok = true;
  // Per-node aggregated commit keeps co-located components honest: both
  // demands must fit together.
  const FunctionGraph& fg = cg.function_graph();
  CompositionEvaluator demand(*sys_);
  demand.aggregate(fg, cg.assignment());
  for (const auto& n : demand.node_demand()) {
    ok = sys_->commit_node_direct(id, n.node, n.demand, now);
    if (!ok) break;
  }
  for (FnEdgeIndex e = 0; ok && e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = sys_->component(cg.component_at(edge.from)).node;
    const NodeId b = sys_->component(cg.component_at(edge.to)).node;
    ok = sys_->commit_virtual_link_direct(id, a, b, edge.required_bandwidth_kbps, now);
  }
  if (!ok) {
    sys_->release_session(id);
    return kNullSession;
  }
  records_.emplace(id, make_record(*sys_, id, request, cg, now, planned_end_time, false));
  return id;
}

bool SessionTable::close(SessionId id) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  sys_->release_session(id);
  records_.erase(it);
  return true;
}

const SessionRecord* SessionTable::find(SessionId id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

bool SessionTable::repair_component(SessionId id, FnNodeIndex fn, ComponentId replacement,
                                    double now) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  SessionRecord& rec = it->second;
  ACP_REQUIRE_MSG(rec.probed, "only probed sessions hold per-placement commit records");

  PlacedComponent* placed = nullptr;
  for (auto& p : rec.placements) {
    if (p.fn == fn) placed = &p;
  }
  ACP_REQUIRE(placed != nullptr);
  const NodeId old_node = placed->node;
  const NodeId new_node = sys_->component(replacement).node;

  // Commit the replacement before releasing the old allocation; on any
  // failure the new commits are rolled back and the record is untouched, so
  // the caller can try another candidate (or give up and close the session).
  if (!sys_->commit_node_direct(id, new_node, placed->demand, now)) return false;
  struct NewLink {
    NodeId a;
    NodeId b;
    double kbps;
  };
  std::vector<NewLink> committed;
  bool ok = true;
  for (const PlacedLink& l : rec.links) {
    if (l.from_fn != fn && l.to_fn != fn) continue;
    const NodeId a = l.from_fn == fn ? new_node : l.a;
    const NodeId b = l.to_fn == fn ? new_node : l.b;
    if (!sys_->commit_virtual_link_direct(id, a, b, l.kbps, now)) {
      ok = false;
      break;
    }
    committed.push_back(NewLink{a, b, l.kbps});
  }
  if (!ok) {
    for (const NewLink& l : committed) sys_->release_virtual_link_direct(id, l.a, l.b, l.kbps);
    sys_->release_node_direct(id, new_node, placed->demand);
    return false;
  }

  // Release the failed placement's node allocation and its old links.
  sys_->release_node_direct(id, old_node, placed->demand);
  for (PlacedLink& l : rec.links) {
    if (l.from_fn != fn && l.to_fn != fn) continue;
    sys_->release_virtual_link_direct(id, l.a, l.b, l.kbps);
    if (l.from_fn == fn) l.a = new_node;
    if (l.to_fn == fn) l.b = new_node;
  }
  const ComponentId old_component = placed->component;
  placed->component = replacement;
  placed->node = new_node;
  for (auto& c : rec.components) {
    if (c == old_component) c = replacement;
  }
  return true;
}

}  // namespace acp::stream
