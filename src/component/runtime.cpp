#include "component/runtime.hpp"

#include <stdexcept>

#include "component/binding.hpp"
#include "sim/simcheck.hpp"

namespace mutsvc::comp {

// --- CallContext thin wrappers ----------------------------------------------

const DeploymentPlan& CallContext::plan() const { return rt_.plan(); }
bool CallContext::has(Feature f) const { return rt_.plan().has(f); }

sim::Task<void> CallContext::cpu(sim::Duration d) {
  const sim::SimTime t0 = rt_.simulator().now();
  co_await rt_.topology().node(node_).cpu->consume(d);
  // Traced: bill the consume (including CPU queueing) so the flat totals
  // stay additive with the measured response time.
  if (trace_ != nullptr) trace_->add(SpanKind::kCpu, rt_.simulator().now() - t0);
}

sim::Task<CallResult> CallContext::call(MethodRef callee, CallArgs args) {
  return rt_.call_from(node_, callee, std::move(args), comp_->id(), trace_, session_key_);
}

sim::Task<CallResult> CallContext::call(const std::string& component, const std::string& method,
                                        CallArgs args) {
  return call(rt_.app().method_ref(component, method), std::move(args));
}

sim::Task<db::QueryResult> CallContext::direct_query(db::Query q) {
  rt_.record_interaction(comp_->id(), rt_.database_endpoint_, 400, !q.is_read());
  if (trace_ == nullptr) return rt_.jdbc_for(node_).execute(std::move(q));
  return [](Runtime& rt, net::NodeId node, db::Query q, TraceSink* trace)
             -> sim::Task<db::QueryResult> {
    const sim::SimTime t0 = rt.simulator().now();
    db::QueryResult res = co_await rt.jdbc_for(node).execute(std::move(q));
    trace->add(SpanKind::kJdbc, rt.simulator().now() - t0);
    co_return res;
  }(rt_, node_, std::move(q), trace_);
}

sim::Task<db::RowRef> CallContext::read_entity(const std::string& entity, std::int64_t pk) {
  const EntityId id = rt_.bound_entity(entity);
  rt_.record_interaction(comp_->id(), rt_.entities_[id].endpoint, 256);
  return rt_.read_entity_impl(node_, id, pk, trace_);
}

sim::Task<db::QueryResult> CallContext::cached_query(db::Query q) {
  rt_.record_interaction(comp_->id(), rt_.query_endpoint(q), 1024);
  return rt_.cached_query_impl(node_, std::move(q), trace_);
}

sim::Task<void> CallContext::write_entity(const std::string& entity, std::int64_t pk,
                                          std::string column, db::Value v,
                                          std::vector<db::Query> affected_queries) {
  const EntityId id = rt_.bound_entity(entity);
  rt_.record_interaction(comp_->id(), rt_.entities_[id].endpoint, 256, /*is_write=*/true);
  for (const auto& q : affected_queries) {
    rt_.record_interaction(comp_->id(), rt_.query_endpoint(q), 64, /*is_write=*/true);
  }
  db::Query w = db::Query::update(rt_.entities_[id].table, pk, std::move(column), std::move(v));
  return rt_.write_impl(this, node_, id, std::move(w), std::move(affected_queries));
}

sim::Task<void> CallContext::insert_row(const std::string& entity, db::Row row,
                                        std::vector<db::Query> affected_queries) {
  const EntityId id = rt_.bound_entity(entity);
  rt_.record_interaction(comp_->id(), rt_.entities_[id].endpoint, 256, /*is_write=*/true);
  for (const auto& q : affected_queries) {
    rt_.record_interaction(comp_->id(), rt_.query_endpoint(q), 64, /*is_write=*/true);
  }
  db::Query w = db::Query::insert(rt_.entities_[id].table, std::move(row));
  return rt_.write_impl(this, node_, id, std::move(w), std::move(affected_queries));
}

std::int64_t CallContext::allocate_id(const std::string& table) {
  return rt_.database().allocate_id(table);
}

// --- Runtime ------------------------------------------------------------------

Runtime::Runtime(sim::Simulator& sim, net::Topology& topo, net::Network& net,
                 net::RmiTransport& rmi, db::Database& db, const Application& app,
                 DeploymentPlan plan, RuntimeConfig cfg)
    : sim_(sim),
      topo_(topo),
      net_(net),
      rmi_(rmi),
      db_(db),
      app_(app),
      plan_(std::move(plan)),
      cfg_(cfg),
      locks_(sim) {
  // Endpoint ids: components first, in name order, so a ComponentId is its
  // own endpoint; then the pseudo-components.
  for (ComponentId c = 0; c < app_.component_count(); ++c) {
    (void)intern_endpoint(app_.component(c).name());
  }
  client_endpoint_ = intern_endpoint("__client__");
  database_endpoint_ = intern_endpoint("__database__");
  component_gates_.resize(app_.component_count());
  component_in_flight_.resize(app_.component_count());
  net::RmiConfig push_cfg = rmi.config();
  push_cfg.extra_rtt_prob = 0.0;
  update_rmi_ = std::make_unique<net::RmiTransport>(net_, push_cfg);
  // The updater façade runs under the same resilience policy as the
  // application transport (its breakers are independent per transport).
  update_rmi_->set_resilience(rmi.resilience());
  if (plan_.has(Feature::kAsyncUpdates)) {
    // One topic per data-tier shard: lane 0 keeps the name "updates" (with
    // one shard this is exactly the paper's single topic), lane s > 0 is
    // "updates-s<s>". Providers live with the main server (§4.5); every
    // update target subscribes to every lane.
    for (std::size_t s = 0; s < db_.shard_count(); ++s) {
      std::string name = s == 0 ? std::string("updates") : "updates-s" + std::to_string(s);
      topics_.push_back(std::make_unique<msg::Topic<cache::UpdateBatch>>(
          net_, plan_.main_server(), std::move(name), cfg_.mdb_dispatch));
      for (net::NodeId edge : update_targets()) {
        topics_[s]->subscribe(edge, [this, edge](const cache::UpdateBatch& batch) {
          return apply_batch(edge, batch);
        });
      }
    }
    for (net::NodeId edge : update_targets()) update_subscribers_.insert(edge);
  }
  // Create every replica the plan declares up front, so the per-node
  // metrics (sample_metrics) report each one from the first sample on —
  // including a replica that is never read, which reports zeros instead of
  // being missing from the report.
  for (net::NodeId n : plan_.query_cache_nodes()) (void)query_cache(n);
  for (const auto& [entity, nodes] : plan_.ro_replicas()) {
    for (net::NodeId n : nodes) (void)ro_cache(n, entity);
  }
}

void Runtime::probe_staleness() {
  const bool invariant_applies = plan_.update_mode() == UpdateMode::kBlockingPush &&
                                 failed_pushes_ == 0 && degraded_reads_ == 0;
  simcheck::probe_zero_staleness(consistency_.stale_reads(), invariant_applies);
}

std::uint32_t Runtime::intern_endpoint(std::string_view name) {
  if (auto it = endpoint_ids_.find(name); it != endpoint_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(endpoint_names_.size());
  endpoint_names_.emplace_back(name);
  endpoint_ids_.emplace(std::string(name), id);
  return id;
}

std::uint32_t Runtime::query_endpoint(const db::Query& q) {
  const std::string& name = q.aggregate_name.empty() ? q.table : q.aggregate_name;
  if (auto it = query_endpoints_.find(name); it != query_endpoints_.end()) return it->second;
  const std::uint32_t id = intern_endpoint("query:" + name);
  query_endpoints_.emplace(name, id);
  return id;
}

EntityId Runtime::intern_entity(std::string_view name) {
  if (auto it = entity_ids_.find(name); it != entity_ids_.end()) return it->second;
  const auto id = static_cast<EntityId>(entities_.size());
  Entity& e = entities_.emplace_back();
  e.name = std::string(name);
  e.endpoint = intern_endpoint(name);
  entity_ids_.emplace(e.name, id);
  index_.built = false;  // the plan index sizes its tables by entity
  return id;
}

EntityId Runtime::bound_entity(std::string_view name) const {
  auto it = entity_ids_.find(name);
  if (it == entity_ids_.end() || !entities_[it->second].bound) {
    throw std::invalid_argument("Runtime: entity not bound to a table: " + std::string(name));
  }
  return it->second;
}

void Runtime::reindex_plan() {
  // Every entity the plan names gets an id first (interning resets `built`).
  for (const auto& [entity, nodes] : plan_.ro_replicas()) (void)intern_entity(entity);
  PlanIndex& idx = index_;
  idx.placement.assign(app_.component_count(), {});
  for (const auto& [component, nodes] : plan_.placements()) {
    if (app_.has_component(component)) idx.placement[app_.component(component).id()] = nodes;
  }
  idx.ro_member.assign(entities_.size(), {});
  idx.ro_any.assign(entities_.size(), 0);
  for (const auto& [entity, nodes] : plan_.ro_replicas()) {
    const EntityId id = entity_ids_.find(entity)->second;
    for (net::NodeId n : nodes) {
      auto& row = idx.ro_member[id];
      if (n.value() >= row.size()) row.resize(n.value() + 1, 0);
      row[n.value()] = 1;
    }
    idx.ro_any[id] = nodes.empty() ? 0 : 1;
  }
  idx.query_cache.clear();
  for (net::NodeId n : plan_.query_cache_nodes()) {
    if (n.value() >= idx.query_cache.size()) idx.query_cache.resize(n.value() + 1, 0);
    idx.query_cache[n.value()] = 1;
  }
  // Replica nodes in entity-name order, then query-cache nodes, each once.
  idx.update_targets.clear();
  auto add = [&](net::NodeId n) {
    if (n == plan_.main_server()) return;
    for (auto t : idx.update_targets) {
      if (t == n) return;
    }
    idx.update_targets.push_back(n);
  };
  for (const auto& [entity, nodes] : plan_.ro_replicas()) {
    for (auto n : nodes) add(n);
  }
  for (auto n : plan_.query_cache_nodes()) add(n);
  idx.revision = plan_.revision();
  idx.built = true;
}

net::NodeId Runtime::resolve_in_plan(ComponentId component, net::NodeId from) {
  const std::vector<net::NodeId>& nodes = plan_index().placement[component];
  if (nodes.empty()) {
    throw std::invalid_argument("DeploymentPlan: component not placed: " +
                                app_.component(component).name());
  }
  for (net::NodeId n : nodes) {
    if (n == from) return from;
  }
  return nodes.front();
}

const BindingTable::Binding* Runtime::binding_for(ComponentId component) {
  if (bindings_->bound_components() != bound_seen_) {
    // Bindings are only ever added, and map nodes never move: a binding's
    // pointer, once found, stays valid.
    for (ComponentId c = 0; c < binding_of_.size(); ++c) {
      binding_of_[c] = bindings_->find(app_.component(c).name());
    }
    bound_seen_ = bindings_->bound_components();
  }
  return binding_of_[component];
}

Runtime::InteractionProfile Runtime::interaction_profile() const {
  InteractionProfile out;
  for (std::uint32_t caller = 0; caller < profile_.size(); ++caller) {
    const std::vector<InteractionStat>& row = profile_[caller];
    for (std::uint32_t callee = 0; callee < row.size(); ++callee) {
      if (row[callee].calls == 0) continue;
      out.emplace(std::make_pair(endpoint_names_[caller], endpoint_names_[callee]), row[callee]);
    }
  }
  return out;
}

cache::ReadOnlyCache& Runtime::ro_cache(net::NodeId node, const std::string& entity) {
  return ro_cache(node, intern_entity(entity));
}

cache::ReadOnlyCache& Runtime::ro_cache(net::NodeId node, EntityId entity) {
  Entity& e = entities_[entity];
  if (node.value() >= e.ro_caches.size()) e.ro_caches.resize(node.value() + 1);
  // The single door to per-node RO caches.
  std::unique_ptr<cache::ReadOnlyCache>& c = e.ro_caches[node.value()];
  if (c == nullptr) c = std::make_unique<cache::ReadOnlyCache>(e.name);
  return *c;
}

cache::QueryCache& Runtime::query_cache(net::NodeId node) {
  auto it = query_caches_.find(node);  // simlint:allow(cross-node-state) — node-checked accessor: the single sanctioned door to per-node query caches
  if (it == query_caches_.end()) {  // simlint:allow(cross-node-state) — node-checked accessor (lazy creation)
    it = query_caches_.emplace(node, std::make_unique<cache::QueryCache>()).first;  // simlint:allow(cross-node-state) — node-checked accessor (lazy creation)
  }
  return *it->second;
}

void Runtime::reset_cache_stats() {
  for (Entity& e : entities_) {
    for (auto& cache : e.ro_caches) {
      if (cache != nullptr) cache->reset_stats();
    }
  }
  for (auto& [node, qc] : query_caches_) qc->reset_stats();
  forwarded_calls_ = 0;
  late_stragglers_ = 0;
}

net::CreditGate& Runtime::component_gate(const std::string& component) {
  std::unique_ptr<net::CreditGate>& gate = component_gates_[app_.component(component).id()];
  if (gate == nullptr) gate = std::make_unique<net::CreditGate>(sim_);
  return *gate;
}

net::CreditGate* Runtime::find_component_gate(const std::string& component) {
  return component_gates_[app_.component(component).id()].get();
}

std::uint64_t Runtime::component_in_flight(const std::string& component) const {
  return component_in_flight_[app_.component(component).id()];
}

void Runtime::ensure_update_subscription(net::NodeId node) {
  if (topics_.empty() || node == plan_.main_server()) return;
  if (update_subscribers_.contains(node)) return;
  update_subscribers_.insert(node);
  for (auto& t : topics_) {
    t->subscribe(node,
                 [this, node](const cache::UpdateBatch& batch) { return apply_batch(node, batch); });
  }
}

sim::Task<std::uint64_t> Runtime::transfer_replica_state(net::NodeId from, net::NodeId to,
                                                         std::vector<std::string> entities,
                                                         bool move_query_cache) {
  std::uint64_t transferred = 0;
  for (const std::string& entity : entities) {
    // Key-sorted snapshot: the transfer's wire bytes and apply order are
    // independent of unordered_map iteration order.
    const auto snap = ro_cache(from, entity).snapshot();
    if (snap.empty()) continue;
    net::Bytes bytes = 64;
    for (const auto& [pk, e] : snap) bytes += db::wire_size(*e.row) + 16;
    co_await update_rmi_->call(from, to, bytes, [&]() -> sim::Task<net::Bytes> {
      co_await topo_.node(to).cpu->consume(cfg_.apply_update);
      cache::ReadOnlyCache& dst = ro_cache(to, entity);
      // apply_push, not fill: version-monotonic in both directions — a
      // concurrent push that already landed at `to` with a newer version
      // wins over the snapshot entry.
      for (const auto& [pk, e] : snap) dst.apply_push(pk, e.row, e.version, e.refreshed_at);
      co_return 16;
    });
    transferred += snap.size();
  }
  if (move_query_cache) {
    const auto snap = query_cache(from).snapshot();
    if (!snap.empty()) {
      net::Bytes bytes = 64;
      for (const auto& [key, e] : snap) {
        bytes += rows_bytes(e.rows) + static_cast<net::Bytes>(key.size());
      }
      co_await update_rmi_->call(from, to, bytes, [&]() -> sim::Task<net::Bytes> {
        co_await topo_.node(to).cpu->consume(cfg_.apply_update);
        cache::QueryCache& dst = query_cache(to);
        for (const auto& [key, e] : snap) dst.apply_push(key, e.rows, e.version);
        co_return 16;
      });
      transferred += snap.size();
    }
  }
  co_return transferred;
}

void Runtime::clear_replica_state(net::NodeId node, const std::vector<std::string>& entities,
                                  bool move_query_cache) {
  for (const std::string& entity : entities) {
    auto it = entity_ids_.find(entity);
    if (it == entity_ids_.end()) continue;
    const auto& caches = entities_[it->second].ro_caches;
    // Migration retirement/rollback clears the named node's own replica.
    if (node.value() < caches.size() && caches[node.value()] != nullptr) {
      caches[node.value()]->invalidate_all();
    }
  }
  if (move_query_cache) {
    auto it = query_caches_.find(node);  // simlint:allow(cross-node-state) — migration retirement/rollback clears the named node's own replica
    if (it != query_caches_.end()) it->second->clear();
  }
}

void Runtime::sample_metrics(sim::SimTime now, sim::Duration window) {
  // Replicas in (node, entity name) order.
  std::vector<const Entity*> by_name;
  std::size_t nodes = 0;
  for (const Entity& e : entities_) {
    by_name.push_back(&e);
    nodes = std::max(nodes, e.ro_caches.size());
  }
  std::sort(by_name.begin(), by_name.end(),
            [](const Entity* a, const Entity* b) { return a->name < b->name; });
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (const Entity* e : by_name) {
      if (n >= e->ro_caches.size() || e->ro_caches[n] == nullptr) continue;
      const cache::ReadOnlyCache* cache = e->ro_caches[n].get();
      stats::MetricsRegistry& m = metrics(net::NodeId{n});
      const std::string p = "rocache." + e->name + ".";
      m.set_counter(p + "hits", cache->hits());
      m.set_counter(p + "misses", cache->misses());
      m.set_counter(p + "pushes_applied", cache->pushes_applied());
      m.set_counter(p + "invalidations", cache->invalidations());
      m.set_counter(p + "stale_fills_rejected", cache->stale_fills_rejected());
      m.set_counter(p + "stale_pushes_rejected", cache->stale_pushes_rejected());
      m.set_gauge(p + "hit_rate", cache->hit_rate());
      m.series(p + "size", window).add(now, static_cast<double>(cache->size()));
    }
  }
  for (const auto& [node, qc] : query_caches_) {
    stats::MetricsRegistry& m = metrics(node);
    m.set_counter("qcache.hits", qc->hits());
    m.set_counter("qcache.misses", qc->misses());
    m.set_counter("qcache.pushes_applied", qc->pushes_applied());
    m.set_counter("qcache.invalidations", qc->invalidations());
    m.set_counter("qcache.stale_pushes_rejected", qc->stale_pushes_rejected());
    m.set_gauge("qcache.hit_rate", qc->hit_rate());
    m.series("qcache.size", window).add(now, static_cast<double>(qc->size()));
  }
  stats::MetricsRegistry& m = metrics(plan_.main_server());
  for (const auto& t : topics_) {
    const std::string p = "topic." + t->name() + ".";
    m.set_counter(p + "published", t->published());
    m.set_counter(p + "delivered", t->delivered());
    m.set_counter(p + "delivery_retries", t->delivery_retries());
    m.set_gauge(p + "queue_depth", static_cast<double>(t->queue_depth()));
    m.series(p + "pending", window).add(now, static_cast<double>(t->pending()));
    m.series(p + "queue_depth", window).add(now, static_cast<double>(t->queue_depth()));
  }
  for (const auto& [edge, q] : write_queues_) {
    m.series("writequeue." + topo_.node(edge).name + ".pending", window)
        .add(now, static_cast<double>(q->pending()));
  }
  m.set_counter("runtime.blocking_pushes", blocking_pushes_);
  m.set_counter("runtime.failed_pushes", failed_pushes_);
  m.set_counter("runtime.async_publishes", async_publishes_);
  m.set_counter("runtime.bounded_waits", bounded_waits_);
  m.set_counter("runtime.degraded_reads", degraded_reads_);
  m.set_counter("runtime.queued_writes", queued_writes_);
  m.set_counter("runtime.queued_writes_applied", queued_writes_applied_);
  m.set_counter("runtime.queued_writes_dropped", queued_writes_dropped_);
  m.set_counter("runtime.cache_rewarms", cache_rewarms_);
  if (bindings_ != nullptr) {
    m.set_counter("placement.forwarded_calls", forwarded_calls_);
    m.set_counter("placement.late_stragglers", late_stragglers_);
    m.set_counter("placement.binding_flips", bindings_->flips());
    m.set_gauge("placement.max_binding_version", static_cast<double>(bindings_->max_version()));
  }
  // Replica staleness vs. the plan's TACT bound: the observed mean version
  // lag should stay at 0 under blocking push and within the bound under
  // async updates.
  m.set_counter("consistency.stale_reads", consistency_.stale_reads());
  m.set_gauge("consistency.stale_fraction", consistency_.stale_fraction());
  m.set_gauge("consistency.staleness_bound", static_cast<double>(plan_.staleness_bound()));
  m.series("consistency.mean_version_lag", window).add(now, consistency_.mean_version_lag());
}

void Runtime::clear_node_caches(net::NodeId node) {
  ++cache_rewarms_;
  for (Entity& e : entities_) {
    if (node.value() < e.ro_caches.size() && e.ro_caches[node.value()] != nullptr) {
      e.ro_caches[node.value()]->invalidate_all();
    }
  }
  auto qit = query_caches_.find(node);  // simlint:allow(cross-node-state) — crash re-warm clears the restarted node's own replica, not another node's
  if (qit != query_caches_.end()) qit->second->clear();  // simlint:allow(cross-node-state) — crash re-warm clears the restarted node's own replica, not another node's
  // The restarted container also lost its JNDI/remote-stub caches; the
  // StubCache is keyed per (node, component) but has no per-node erase, and
  // stub re-acquisition is cheap — clearing it all models the cold start.
  stubs_.clear();
}

msg::Topic<Runtime::QueuedWrite>& Runtime::write_queue(net::NodeId edge) {
  auto it = write_queues_.find(edge);  // simlint:allow(cross-node-state) — node-checked accessor: the single sanctioned door to per-edge write queues
  if (it == write_queues_.end()) {  // simlint:allow(cross-node-state) — node-checked accessor (lazy creation)
    // Provider co-located with the edge: accepting a queued write is a
    // local, durable operation; the provider then drains to the master
    // with the topic's at-least-once redelivery.
    auto topic = std::make_unique<msg::Topic<QueuedWrite>>(
        net_, edge, "queued-writes:" + topo_.node(edge).name, cfg_.mdb_dispatch);
    topic->set_retry_interval(sim::sec(1));
    topic->subscribe(plan_.main_server(),
                     [this](const QueuedWrite& w) { return apply_queued_write(w); });
    it = write_queues_.emplace(edge, std::move(topic)).first;  // simlint:allow(cross-node-state) — node-checked accessor (lazy creation)
  }
  return *it->second;
}

sim::Task<void> Runtime::apply_queued_write(QueuedWrite w) {
  // The message reached the master; apply it as a standalone transaction.
  // Residual failures (message loss on the JDBC hop, a push racing a new
  // partition) are retried here with backoff so the queue still converges.
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool ok = false;
    try {
      co_await write_impl(nullptr, plan_.main_server(), w.entity, w.write, w.affected);
      ok = true;
    } catch (const net::NetError&) {
    }
    if (ok) {
      ++queued_writes_applied_;
      co_return;
    }
    co_await sim_.wait(sim::ms(250.0 * static_cast<double>(1 << std::min(attempt, 4))));
  }
  ++queued_writes_dropped_;
}

db::JdbcClient& Runtime::jdbc_for(net::NodeId node) {
  auto it = jdbc_clients_.find(node);  // simlint:allow(cross-node-state) — node-checked accessor: the single sanctioned door to per-node JDBC clients
  if (it == jdbc_clients_.end()) {  // simlint:allow(cross-node-state) — node-checked accessor (lazy creation)
    it = jdbc_clients_
             .emplace(node, std::make_unique<db::JdbcClient>(net_, db_, node, cfg_.jdbc))
             .first;
  }
  return *it->second;
}

net::Bytes Runtime::values_bytes(std::span<const db::Value> vals) {
  net::Bytes total = 0;
  for (const auto& v : vals) total += db::wire_size(v);
  return total;
}

net::Bytes Runtime::rows_bytes(const std::vector<db::RowRef>& rows) {
  net::Bytes total = 0;
  for (const auto& r : rows) total += db::wire_size(*r);
  return total;
}

sim::Task<CallResult> Runtime::invoke(net::NodeId caller_node, MethodRef callee, CallArgs args,
                                      TraceSink* trace, std::uint64_t session_key) {
  return call_from(caller_node, callee, std::move(args), client_endpoint_, trace, session_key);
}

sim::Task<CallResult> Runtime::invoke(net::NodeId caller_node, const std::string& component,
                                      const std::string& method, CallArgs args, TraceSink* trace,
                                      std::uint64_t session_key) {
  return invoke(caller_node, app_.method_ref(component, method), std::move(args), trace,
                session_key);
}

sim::Task<CallResult> Runtime::call_from(net::NodeId caller, MethodRef callee, CallArgs args,
                                         std::uint32_t caller_endpoint, TraceSink* trace,
                                         std::uint64_t session_key) {
  if (app_.component_count() != component_gates_.size()) {
    // A later define() renumbers the ids every per-call table is built on.
    throw std::logic_error("Runtime: component defined after the runtime was built");
  }
  const ComponentDef& comp = *callee.component;
  const MethodDef& method = *callee.method;
  const ComponentId cid = comp.id();
  record_interaction(caller_endpoint, cid, method.args_bytes + method.result_bytes);

  // In-flight accounting for migration drains; released when the coroutine
  // frame unwinds (normal return or exception). Counted only while a
  // binding table is installed.
  struct InFlight {
    std::uint64_t* n = nullptr;
    ~InFlight() {
      if (n != nullptr) --*n;
    }
  } in_flight;

  net::NodeId target;
  if (bindings_ == nullptr) {
    target = resolve_in_plan(cid, caller);
  } else {
    if (net::CreditGate* gate = component_gates_[cid].get()) {
      // Deadlock avoidance: a call tree already past a migrating
      // component's gate must run to completion (the drain waits on it); a
      // nested call between migrating components therefore bypasses the
      // gate. Only fresh entry into the migration set parks.
      net::CreditGate* caller_gate = caller_endpoint < component_gates_.size()
                                         ? component_gates_[caller_endpoint].get()
                                         : nullptr;
      const bool inside_migration = caller_gate != nullptr && !caller_gate->open();
      if (!inside_migration) co_await gate->wait();
    }
    std::uint64_t& n = component_in_flight_[cid];
    ++n;
    in_flight.n = &n;
    const BindingTable::Binding* b = binding_for(cid);
    target = b == nullptr ? resolve_in_plan(cid, caller)
                          : BindingTable::resolve(*b, caller, sim_.now(), session_key);
  }

  // Straggler detection: a stale view may have routed this call to the old
  // site; the old site forwards to the converged authority.
  net::NodeId exec = target;
  const BindingTable::Binding* binding = bindings_ == nullptr ? nullptr : binding_for(cid);
  if (binding != nullptr) {
    const net::NodeId authority = BindingTable::authoritative(*binding, target);
    if (authority != target) {
      if (bindings_->in_forward_epoch(*binding, sim_.now())) {
        ++forwarded_calls_;
      } else {
        ++late_stragglers_;
      }
      exec = authority;
    }
  }

  CallResult out;
  if (target == caller && exec == target) {
    const sim::SimTime c0 = sim_.now();
    co_await topo_.node(caller).cpu->consume(cfg_.local_dispatch);
    if (trace) trace->add(SpanKind::kCpu, sim_.now() - c0);
    co_await dispatch(caller, comp, method, std::move(args), &out.rows, trace, session_key);
    co_return out;
  }

  if (comp.is_local_only()) {
    throw std::logic_error("Runtime: remote invocation of local-only component " + comp.name());
  }

  // JNDI home lookup / remote stub creation. With the EJBHomeFactory pattern
  // (§4.2) this happens once per (node, component); without it, every call.
  const bool need_stub =
      !plan_.has(Feature::kStubCaching) || stubs_.need_stub_exchange(caller, cid);
  if (need_stub) {
    co_await rmi_.stub_exchange(caller, target, trace);
  }

  const net::Bytes args_size = method.args_bytes + values_bytes(args.view());
  // The one server-side body: dispatch at the authority, reply with the
  // result. The transport owns the wire span + exclusive rmi-wire
  // accounting; the dispatched body opens child spans of its own.
  auto serve = [&]() -> sim::Task<net::Bytes> {
    co_await dispatch(exec, comp, method, std::move(args), &out.rows, trace, session_key);
    co_return method.result_bytes + rows_bytes(out.rows);
  };
  if (target == caller || target == exec) {
    // Straight to the authority — also when the caller's own stale view
    // dispatched locally to the retired site.
    co_await rmi_.call(caller, exec, args_size, serve, trace);
  } else {
    // Straggler forwarding: the old site relays the call to the new
    // authority with a second RMI hop, paying the real double-hop cost of a
    // not-yet-converged view.
    co_await rmi_.call(
        caller, target, args_size,
        [&]() -> sim::Task<net::Bytes> {
          co_await rmi_.call(target, exec, args_size, serve, trace);
          co_return method.result_bytes + rows_bytes(out.rows);
        },
        trace);
  }
  co_return out;
}

sim::Task<void> Runtime::dispatch(net::NodeId node, const ComponentDef& comp,
                                  const MethodDef& method, CallArgs args,
                                  std::vector<db::RowRef>* out, TraceSink* trace,
                                  std::uint64_t session_key) {
  {
    const sim::SimTime c0 = sim_.now();
    co_await topo_.node(node).cpu->consume(method.cpu);
    if (trace) {
      const sim::SimTime c1 = sim_.now();
      trace->add(SpanKind::kCpu, c1 - c0);
      trace->leaf(SpanKind::kCpu, "cpu:" + comp.name() + "." + method.name, node.value(),
                  node.value(), c0, c1);
    }
  }
  if (method.latency > sim::Duration::zero()) {
    const sim::SimTime l0 = sim_.now();
    co_await sim_.wait(method.latency);
    if (trace) {
      trace->add(SpanKind::kLatency, method.latency);
      trace->leaf(SpanKind::kLatency, "container:" + comp.name() + "." + method.name,
                  node.value(), node.value(), l0, sim_.now());
    }
  }
  if (method.body) {
    CallContext ctx{*this, node, comp, method, std::move(args)};
    ctx.trace_ = trace;
    ctx.session_key_ = session_key;
    try {
      co_await method.body(ctx);
      co_await commit_transaction(ctx);
    } catch (...) {
      // Abort: release locks without propagating edge updates.
      for (auto it = ctx.tx_locks_.rbegin(); it != ctx.tx_locks_.rend(); ++it) {
        locks_.release(*it);
      }
      ctx.tx_locks_.clear();
      throw;
    }
    if (out != nullptr) *out = std::move(ctx.result);
  }
}

sim::Task<db::RowRef> Runtime::read_entity_impl(net::NodeId node, EntityId entity,
                                                std::int64_t pk, TraceSink* trace) {
  const cache::EntityKey vkey{entity, pk};
  const std::string& table = entities_[entity].table;
  const net::NodeId primary = plan_.main_server();

  if (plan_.has(Feature::kStatefulComponentCaching) &&
      member(plan_index().ro_member[entity], node)) {
    cache::ReadOnlyCache& cache = ro_cache(node, entity);
    co_await topo_.node(node).cpu->consume(cfg_.cache_access);
    if (trace) trace->add(SpanKind::kCacheRead, cfg_.cache_access);
    // Degraded reads may need the raw entry even when the TTL has expired —
    // snapshot it before get_if_fresh erases a TTL-expired entry.
    const bool may_degrade =
        degraded_mode() && rmi_.resilience().degraded_reads && node != primary;
    std::optional<cache::ReadOnlyCache::Entry> raw;
    if (may_degrade) {
      if (const cache::ReadOnlyCache::Entry* e = cache.get(pk)) raw = *e;
    }
    auto serve_stale = [&]() -> bool {
      return raw.has_value() && within_staleness_bound(vkey, raw->version);
    };
    // Graceful degradation, fast path: the breaker to the master is open, so
    // a refresh RMI is doomed — serve the stale replica entry (ignoring the
    // TTL) when the TACT staleness bound admits it.
    if (may_degrade && rmi_.fast_fail(primary) && serve_stale()) {
      ++degraded_reads_;
      note_read(vkey, raw->version);
      co_return raw->row;
    }
    if (const auto* entry = cache.get_if_fresh(pk, sim_.now(), cfg_.ro_ttl)) {
      note_read(vkey, entry->version);
      co_return entry->row;
    }
    // Pull refresh: one RMI to the remote façade co-located with the data
    // (read-only beans "refresh their content by querying a remote façade
    // upon the first business method call after the invalidation", §4.3).
    db::RowRef fetched;
    std::uint64_t version = 0;
    bool refreshed = false;
    try {
      // The transport bills the exclusive wire time; the server-side body
      // accounts its own window under kJdbc, keeping the totals additive.
      co_await rmi_.call(
          node, primary, 64,
          [&]() -> sim::Task<net::Bytes> {
            const sim::SimTime w0 = sim_.now();
            co_await topo_.node(primary).cpu->consume(cfg_.entity_access);
            db::QueryResult res =
                co_await jdbc_for(primary).execute(db::Query::pk_lookup(table, pk));
            if (!res.rows.empty()) fetched = std::move(res.rows[0]);
            // The reply is billed as the bare result envelope, without the
            // row: the byte count every golden and digest was recorded with.
            res.rows.clear();
            version = consistency_.master_version(vkey);
            if (trace) {
              const sim::SimTime w1 = sim_.now();
              trace->add(SpanKind::kJdbc, w1 - w0);
              trace->leaf(SpanKind::kJdbc, "refresh:" + entities_[entity].name, primary.value(),
                          primary.value(), w0, w1);
            }
            co_return res.wire_bytes();
          },
          trace);
      refreshed = true;
    } catch (const net::NetError&) {
      if (!may_degrade) throw;
    }
    if (!refreshed) {
      // Refresh failed mid-outage: fall back to the stale replica.
      if (serve_stale()) {
        ++degraded_reads_;
        note_read(vkey, raw->version);
        co_return raw->row;
      }
      throw net::DeliveryError("Runtime: read of " + version_label(entity, pk) +
                               " failed with no usable replica entry");
    }
    if (fetched) {
      cache.fill(pk, fetched, version, sim_.now());
      note_read(vkey, version);
    }
    co_return fetched;
  }

  // No local replica: read through the entity bean at its primary.
  auto read_at_primary = [&]() -> sim::Task<db::RowRef> {
    const sim::SimTime j0 = sim_.now();
    co_await topo_.node(primary).cpu->consume(cfg_.entity_access);
    db::QueryResult res = co_await jdbc_for(primary).execute(db::Query::pk_lookup(table, pk));
    if (trace) trace->add(SpanKind::kJdbc, sim_.now() - j0);
    note_read(vkey, consistency_.master_version(vkey));
    if (res.rows.empty()) co_return db::RowRef();
    co_return std::move(res.rows[0]);
  };

  if (node == primary) co_return co_await read_at_primary();

  db::RowRef fetched;
  co_await rmi_.call(
      node, primary, 64,
      [&]() -> sim::Task<net::Bytes> {
        fetched = co_await read_at_primary();
        co_return fetched ? db::wire_size(*fetched) + 16 : 16;
      },
      trace);
  co_return fetched;
}

sim::Task<db::QueryResult> Runtime::cached_query_impl(net::NodeId node, db::Query q,
                                                      TraceSink* trace) {
  if (plan_.has(Feature::kQueryCaching) && member(plan_index().query_cache, node) &&
      q.is_cacheable()) {
    const std::string key = q.cache_key();  // built once for the read, the miss and the fill
    cache::QueryCache& qc = query_cache(node);
    co_await topo_.node(node).cpu->consume(cfg_.cache_access);
    if (trace) trace->add(SpanKind::kCacheRead, cfg_.cache_access);
    if (const cache::QueryCache::Entry* entry = qc.get(key)) {
      note_read(key, entry->version);
      co_return db::QueryResult{entry->rows, 0};
    }
    // The fill's version is captured by query_at_main at the primary,
    // immediately before the query executes: the fill must never claim a
    // version newer than the data it installs (a write committing
    // mid-flight would otherwise let stale rows masquerade as fresh).
    std::uint64_t pre_version = 0;
    db::QueryResult res = co_await query_at_main(node, std::move(q), trace, &key, &pre_version);
    qc.fill(key, res.rows, pre_version);
    note_read(key, pre_version);
    co_return res;
  }
  co_return co_await query_at_main(node, std::move(q), trace);
}

sim::Task<db::QueryResult> Runtime::query_at_main(net::NodeId from, db::Query q,
                                                  TraceSink* trace, const std::string* cache_key,
                                                  std::uint64_t* pre_version) {
  const net::NodeId primary = plan_.main_server();
  if (from == primary) {
    const sim::SimTime j0 = sim_.now();
    if (pre_version != nullptr) *pre_version = consistency_.master_version(*cache_key);
    db::QueryResult res = co_await jdbc_for(primary).execute(std::move(q));
    if (trace) trace->add(SpanKind::kJdbc, sim_.now() - j0);
    co_return res;
  }
  // One façade RMI to the main server, which runs the query next to the DB.
  // The transport runs the body at most once, so it may consume `q`.
  db::QueryResult res;
  co_await rmi_.call(
      from, primary, 128,
      [&]() -> sim::Task<net::Bytes> {
        const sim::SimTime w0 = sim_.now();
        co_await topo_.node(primary).cpu->consume(cfg_.local_dispatch);
        if (pre_version != nullptr) *pre_version = consistency_.master_version(*cache_key);
        std::string label = trace != nullptr ? "query:" + q.table : std::string();
        res = co_await jdbc_for(primary).execute(std::move(q));
        if (trace) {
          const sim::SimTime w1 = sim_.now();
          trace->add(SpanKind::kJdbc, w1 - w0);
          trace->leaf(SpanKind::kJdbc, std::move(label), primary.value(), primary.value(), w0,
                      w1);
        }
        co_return res.wire_bytes();
      },
      trace);
  co_return res;
}

sim::Task<void> Runtime::write_impl(CallContext* ctx, net::NodeId node, EntityId entity,
                                    db::Query write, std::vector<db::Query> affected_queries,
                                    TraceSink* trace) {
  if (ctx != nullptr) trace = ctx->trace_;
  const net::NodeId primary = plan_.main_server();
  if (node != primary) {
    const net::Bytes wire = 96 + values_bytes(write.row);
    const bool may_queue = degraded_mode() && rmi_.resilience().queue_writes;
    // Graceful degradation, fast path: master unreachable (breaker open) —
    // accept the write locally and queue it for redelivery.
    if (may_queue && rmi_.fast_fail(primary)) {
      // GCC 12 miscompiles braced temporaries inside co_await expressions
      // (bitwise frame spill) — build a named local instead.
      QueuedWrite queued{entity, write, affected_queries};
      const sim::SimTime q0 = sim_.now();
      co_await write_queue(node).publish(node, std::move(queued), wire, trace);
      ++queued_writes_;
      if (trace) trace->add(SpanKind::kPublish, sim_.now() - q0);
      co_return;
    }
    // Route through the façade co-located with the data source. The remote
    // side commits as its own transaction. (The façade body copies its
    // inputs: a failed attempt must leave them intact for the queue path.)
    bool ok = false;
    try {
      co_await rmi_.call(
          node, primary, wire,
          [&]() -> sim::Task<net::Bytes> {
            co_await write_impl(nullptr, primary, entity, write, affected_queries, trace);
            co_return 32;
          },
          trace);
      ok = true;
    } catch (const net::NetError&) {
      if (!may_queue) throw;
    }
    if (!ok) {
      QueuedWrite queued{entity, std::move(write), std::move(affected_queries)};
      const sim::SimTime q0 = sim_.now();
      co_await write_queue(node).publish(node, std::move(queued), wire, trace);
      ++queued_writes_;
      if (trace) trace->add(SpanKind::kPublish, sim_.now() - q0);
    }
    co_return;
  }
  const std::int64_t pk =
      write.kind == db::QueryKind::kInsert ? db::as_int(write.row.at(0)) : write.pk;
  const LockManager::Key lock_key{entities_[entity].name, pk};
  const bool already_held = ctx != nullptr && ctx->holds_lock(lock_key);
  // Sanitizer identity: the transaction (CallContext) when the write joins
  // one, else a synthetic single-use actor. Zero when SimCheck is off.
  const simcheck::ActorId actor =
      !simcheck::enabled() ? 0
      : ctx != nullptr     ? simcheck::actor_from_pointer(ctx)
                           : simcheck::anonymous_actor();
  if (!already_held) {
    const sim::SimTime l0 = sim_.now();
    co_await locks_.acquire(lock_key, actor);
    if (trace) {
      const sim::SimTime l1 = sim_.now();
      trace->add(SpanKind::kLockWait, l1 - l0);
      if (l1 > l0) {
        trace->leaf(SpanKind::kLockWait, "lock:" + entities_[entity].name, primary.value(),
                    primary.value(), l0, l1);
      }
    }
  }
  if (ctx != nullptr && !already_held) ctx->tx_locks_.push_back(lock_key);

  try {
    // The write span covers the suspension points of the mutation; under
    // SimCheck, a second coroutine entering it for the same (entity, pk)
    // without the lock is flagged as a write overlap.
    simcheck::WriteGuard guard(
        actor, simcheck::enabled() ? version_label(entity, pk) : std::string(),
        /*holds_lock=*/true);
    const sim::SimTime j0 = sim_.now();
    co_await topo_.node(primary).cpu->consume(cfg_.entity_access);
    (void)co_await jdbc_for(primary).execute(std::move(write));
    if (trace) {
      const sim::SimTime j1 = sim_.now();
      trace->add(SpanKind::kJdbc, j1 - j0);
      trace->leaf(SpanKind::kJdbc, "write:" + entities_[entity].name, primary.value(),
                  primary.value(), j0, j1);
    }
  } catch (...) {
    if (ctx == nullptr && !already_held) locks_.release(lock_key);
    throw;
  }

  if (ctx != nullptr) {
    // Defer propagation to the enclosing transaction's commit.
    ctx->tx_writes_.push_back(CallContext::PendingWrite{entity, pk});
    for (auto& q : affected_queries) ctx->tx_affected_.push_back(std::move(q));
    co_return;
  }

  // Standalone write: commit immediately.
  std::vector<CallContext::PendingWrite> writes{CallContext::PendingWrite{entity, pk}};
  try {
    co_await propagate(writes, affected_queries, trace);
  } catch (...) {
    locks_.release(lock_key);
    throw;
  }
  locks_.release(lock_key);
}

sim::Task<void> Runtime::commit_transaction(CallContext& ctx) {
  if (!ctx.tx_writes_.empty() || !ctx.tx_affected_.empty()) {
    co_await propagate(ctx.tx_writes_, ctx.tx_affected_, ctx.trace_);
    ctx.tx_writes_.clear();
    ctx.tx_affected_.clear();
  }
  for (auto it = ctx.tx_locks_.rbegin(); it != ctx.tx_locks_.rend(); ++it) {
    locks_.release(*it);
  }
  ctx.tx_locks_.clear();
}

sim::Task<void> Runtime::propagate(const std::vector<CallContext::PendingWrite>& writes,
                                   const std::vector<db::Query>& affected, TraceSink* trace) {
  // Pre-allocate one version per touched key. Allocation is monotone across
  // concurrent transactions, so two writers sharing a query key get
  // distinct versions and the replicas' monotonic apply keeps the newest.
  // Keys are independent, so the allocation order does not matter.
  TxVersions versions;
  for (const auto& w : writes) {
    const cache::EntityKey k{w.entity, w.pk};
    if (versions.of(k) == 0) versions.entities.emplace_back(k, consistency_.allocate(k));
  }
  versions.query_keys.reserve(affected.size());
  for (const auto& q : affected) {
    std::string k = q.cache_key();
    if (versions.of(k) == 0) versions.queries.emplace_back(k, consistency_.allocate(k));
    versions.query_keys.push_back(std::move(k));
  }
  auto advance_all = [&] {
    for (const auto& [k, v] : versions.entities) consistency_.advance_to(k, v);
    for (const auto& [k, v] : versions.queries) consistency_.advance_to(k, v);
  };

  const PlanIndex& idx = plan_index();
  bool entity_replicated = false;
  for (const auto& w : writes) {
    if (w.entity < idx.ro_any.size() && idx.ro_any[w.entity] != 0) entity_replicated = true;
  }
  const bool touches_edges =
      entity_replicated || (!affected.empty() && !plan_.query_cache_nodes().empty());

  switch (touches_edges ? plan_.update_mode() : UpdateMode::kNone) {
    case UpdateMode::kNone:
      advance_all();
      break;
    case UpdateMode::kBlockingPush: {
      // §4.3 zero staleness: the pushed entries carry their allocated
      // versions; the readable master only advances once every replica has
      // applied the update, so no read can observe a master version newer
      // than what its local replica holds.
      cache::UpdateBatch batch = build_batch(writes, affected, versions);
      co_await push_blocking(std::move(batch), trace);
      advance_all();
      break;
    }
    case UpdateMode::kAsyncPush: {
      cache::UpdateBatch batch = build_batch(writes, affected, versions);
      advance_all();
      co_await publish_async(std::move(batch), trace);
      break;
    }
  }
}

cache::UpdateBatch Runtime::build_batch(const std::vector<CallContext::PendingWrite>& writes,
                                        const std::vector<db::Query>& affected,
                                        const TxVersions& versions) {
  cache::UpdateBatch batch;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const auto& w = writes[i];
    // Last write wins for duplicate (entity, pk) pairs.
    bool duplicate = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (writes[j].entity == w.entity && writes[j].pk == w.pk) duplicate = true;
    }
    if (duplicate) continue;
    const Entity& e = entities_[w.entity];
    if (db::RowRef row = db_.table(e.table).get(w.pk)) {
      batch.entities.push_back(cache::EntityUpdate{e.name, w.pk, std::move(row),
                                                   versions.of(cache::EntityKey{w.entity, w.pk})});
    }
  }
  const bool push_rows = plan_.query_refresh() == QueryRefreshMode::kPush;
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const auto& q = affected[i];
    const std::string& key = versions.query_keys[i];
    bool duplicate = false;
    for (const auto& r : batch.queries) {
      if (r.cache_key == key) duplicate = true;
    }
    if (duplicate) continue;
    cache::QueryRefresh refresh;
    refresh.cache_key = key;
    refresh.version = versions.of(key);
    if (push_rows) {
      // Re-execute next to the data and ship the fresh rows (§4.4 push).
      refresh.rows = db_.execute_immediate(q).rows;
    } else {
      refresh.invalidate_only = true;
    }
    batch.queries.push_back(std::move(refresh));
  }
  return batch;
}

sim::Task<void> Runtime::push_blocking(cache::UpdateBatch batch, TraceSink* trace) {
  const sim::SimTime p0 = sim_.now();
  // §4.3: "read-write entity beans block while the update is pushed to the
  // read-only beans" — one bulk façade RMI per edge, in sequence, holding
  // the transaction open.
  const net::NodeId primary = plan_.main_server();
  // One umbrella span for the whole push phase with one child leaf per edge,
  // so a traced Commit page shows the sequential wide-area pushes as
  // distinct children. The flat total is billed once for the umbrella; the
  // per-edge updater RMIs deliberately run untraced (their wire time IS the
  // push time — tracing both would double-bill).
  const std::uint32_t span =
      trace != nullptr
          ? trace->begin_span(SpanKind::kPush, "push", primary.value(), primary.value(), p0)
          : 0;
  const net::Bytes bytes = batch.wire_bytes(cfg_.delta_encoding);
  // A copy: a migration may re-index the plan while this push is suspended.
  const std::vector<net::NodeId> targets = update_targets();
  for (net::NodeId edge : targets) {
    const sim::SimTime e0 = sim_.now();
    try {
      ++blocking_pushes_;
      co_await update_rmi_->call(primary, edge, bytes, [&]() -> sim::Task<net::Bytes> {
        co_await apply_batch(edge, batch);
        co_return 16;  // ack
      });
    } catch (const net::NetError&) {
      // Partitioned or lossy edge (retries exhausted): the transaction
      // proceeds; the replica will serve stale data until reachability
      // returns (counted by the ConsistencyTracker — availability over
      // freshness during failures).
      ++failed_pushes_;
    }
    if (trace) {
      trace->leaf(SpanKind::kPush, "push:" + topo_.node(edge).name, primary.value(),
                  edge.value(), e0, sim_.now());
    }
  }
  if (trace) {
    const sim::SimTime p1 = sim_.now();
    trace->add(SpanKind::kPush, p1 - p0);
    trace->end_span(span, p1);
  }
}

std::vector<cache::UpdateBatch> Runtime::split_by_shard(cache::UpdateBatch batch) const {
  std::vector<cache::UpdateBatch> lanes(topics_.size());
  // Query results span shards; their refreshes ride the coordinator lane.
  lanes[0].queries = std::move(batch.queries);
  for (cache::EntityUpdate& e : batch.entities) {
    lanes[db_.router().shard_of(e.pk)].entities.push_back(std::move(e));
  }
  return lanes;
}

sim::Task<void> Runtime::publish_async(cache::UpdateBatch batch, TraceSink* trace) {
  const sim::SimTime p0 = sim_.now();
  if (topics_.empty()) throw std::logic_error("Runtime: async updates without a topic");
  const std::uint32_t span =
      trace != nullptr
          ? trace->begin_span(SpanKind::kPublish, "publish", plan_.main_server().value(),
                              plan_.main_server().value(), p0)
          : 0;
  ++async_publishes_;
  // TACT-style order-error bound: block the writer while the slowest
  // replica lags more than the configured number of batches (summed across
  // the shard topics — with one shard this is exactly the single-topic
  // bound).
  const std::uint32_t bound = plan_.staleness_bound();
  if (bound > 0 && topics_[0]->subscriber_count() > 0) {
    const auto subs = static_cast<std::uint64_t>(topics_[0]->subscriber_count());
    auto outstanding = [&] {
      std::uint64_t published = 0;
      std::uint64_t delivered = 0;
      for (const auto& t : topics_) {
        published += t->published();
        delivered += t->delivered();
      }
      return published * subs - delivered;
    };
    while (outstanding() >= bound * subs) {
      ++bounded_waits_;
      co_await sim_.wait(sim::ms(5));
    }
  }
  // The writer only waits for the local provider to accept the message.
  co_await sim_.wait(cfg_.jms_accept);
  // One publish per non-empty shard lane, in lane order. With one shard the
  // whole batch is lane 0: the paper's single §4.5 topic.
  std::vector<cache::UpdateBatch> lanes = split_by_shard(std::move(batch));
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    if (lanes[s].empty()) continue;
    const net::Bytes bytes = lanes[s].wire_bytes(cfg_.delta_encoding);
    co_await topics_[s]->publish(plan_.main_server(), std::move(lanes[s]), bytes, trace);
  }
  if (trace) {
    const sim::SimTime p1 = sim_.now();
    trace->add(SpanKind::kPublish, p1 - p0);
    trace->end_span(span, p1);
  }
}

sim::Task<void> Runtime::apply_batch(net::NodeId node, const cache::UpdateBatch& batch) {
  co_await topo_.node(node).cpu->consume(cfg_.apply_update);
  const PlanIndex& idx = plan_index();
  for (const auto& e : batch.entities) {
    const auto it = entity_ids_.find(e.entity);
    if (it != entity_ids_.end() && member(idx.ro_member[it->second], node)) {
      ro_cache(node, it->second).apply_push(e.pk, e.row, e.version, sim_.now());
    }
  }
  if (member(idx.query_cache, node)) {
    cache::QueryCache& qc = query_cache(node);
    for (const auto& q : batch.queries) {
      if (q.invalidate_only) {
        qc.invalidate(q.cache_key);
      } else {
        // Install even when the key is absent: a concurrent cache-miss may
        // have executed the query against pre-write data and its (stale)
        // fill could land after this push — the version-monotonic fill
        // then rejects it, preserving zero staleness under blocking push.
        qc.apply_push(q.cache_key, q.rows, q.version);
      }
    }
  }
}

}  // namespace mutsvc::comp
