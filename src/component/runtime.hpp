#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/consistency.hpp"
#include "cache/query_cache.hpp"
#include "cache/read_only_cache.hpp"
#include "cache/update.hpp"
#include "component/binding.hpp"
#include "component/deployment.hpp"
#include "component/locks.hpp"
#include "component/model.hpp"
#include "component/naming.hpp"
#include "component/trace.hpp"
#include "db/database.hpp"
#include "db/jdbc.hpp"
#include "messaging/topic.hpp"
#include "net/flowcontrol.hpp"
#include "net/http.hpp"
#include "net/network.hpp"
#include "net/rmi.hpp"
#include "sim/simcheck.hpp"
#include "sim/task.hpp"
#include "stats/metrics.hpp"

namespace mutsvc::comp {

/// Container-level service demands (calibrated; see core/calibration.hpp).
struct RuntimeConfig {
  sim::Duration local_dispatch = sim::us(60);  // in-container EJB call
  sim::Duration entity_access = sim::us(150);  // entity bean instance access
  sim::Duration cache_access = sim::us(80);    // RO-cache / query-cache read
  sim::Duration apply_update = sim::us(200);   // applying one pushed batch
  sim::Duration mdb_dispatch = sim::us(300);   // onMessage dispatch (§4.5)
  sim::Duration jms_accept = sim::ms(2);       // provider accept (publish side)
  db::JdbcConfig jdbc;
  bool delta_encoding = false;  // push only modified fields (§4.3)
  /// §4.3 vendor-style timeout invalidation for read-only beans; zero (the
  /// default, the paper's configuration) disables expiry — freshness is
  /// the push protocol's job.
  sim::Duration ro_ttl = sim::Duration::zero();
};

struct CallResult {
  std::vector<db::RowRef> rows;
};

/// A call's arguments: owned by the call (a nested call builds them), or
/// borrowed from a caller that outlives the call (the HTTP edge lends its
/// PageRequest's arguments, and a servlet that forwards its own arguments
/// lends them, instead of copying them). Move-only; a move keeps the view
/// valid because a moved vector keeps its buffer.
class CallArgs {
 public:
  CallArgs() = default;
  CallArgs(std::vector<db::Value> owned)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(owned)), view_(owned_) {}
  CallArgs(CallArgs&&) = default;
  CallArgs& operator=(CallArgs&&) = default;
  CallArgs(const CallArgs&) = delete;
  CallArgs& operator=(const CallArgs&) = delete;

  /// Borrows `lent`, which must outlive the call.
  [[nodiscard]] static CallArgs borrow(std::span<const db::Value> lent) {
    CallArgs a;
    a.view_ = lent;
    return a;
  }

  [[nodiscard]] std::span<const db::Value> view() const { return view_; }

 private:
  std::vector<db::Value> owned_;
  std::span<const db::Value> view_;
};

class Runtime;

/// Dense runtime entity index (one per entity name the Runtime has seen).
using EntityId = std::uint32_t;

/// The view a running method body has of its container (the "EJB context").
class CallContext {
 public:
  CallContext(Runtime& rt, net::NodeId node, const ComponentDef& comp, const MethodDef& method,
              CallArgs args)
      : rt_(rt), node_(node), comp_(&comp), method_(&method), args_(std::move(args)) {}

  [[nodiscard]] Runtime& runtime() { return rt_; }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] const ComponentDef& component() const { return *comp_; }
  [[nodiscard]] const MethodDef& method() const { return *method_; }

  [[nodiscard]] const DeploymentPlan& plan() const;
  [[nodiscard]] bool has(Feature f) const;

  /// The request's trace sink (null when tracing is off). Nested calls
  /// inherit it automatically.
  [[nodiscard]] TraceSink* trace() const { return trace_; }

  /// The originating session's routing key (0 when the caller has none).
  /// Nested calls inherit it, so canary binding decisions are sticky across
  /// a whole call tree.
  [[nodiscard]] std::uint64_t session_key() const { return session_key_; }

  [[nodiscard]] std::size_t arg_count() const { return args_.view().size(); }
  /// Every argument; lend them on with CallArgs::borrow while this context
  /// is alive.
  [[nodiscard]] std::span<const db::Value> args() const { return args_.view(); }
  [[nodiscard]] const db::Value& arg(std::size_t i) const {
    if (i >= args_.view().size()) throw std::out_of_range("CallContext::arg");
    return args_.view()[i];
  }
  [[nodiscard]] std::int64_t arg_int(std::size_t i) const { return db::as_int(arg(i)); }
  [[nodiscard]] const std::string& arg_text(std::size_t i) const { return db::as_text(arg(i)); }

  /// Consume CPU on this node.
  [[nodiscard]] sim::Task<void> cpu(sim::Duration d);

  /// Invoke another component's method (local dispatch or RMI, per plan)
  /// through a handle resolved when the application was defined.
  [[nodiscard]] sim::Task<CallResult> call(MethodRef callee, CallArgs args = {});

  /// By name: resolves `component.method` (std::invalid_argument when
  /// unknown), then takes the handle path.
  [[nodiscard]] sim::Task<CallResult> call(const std::string& component,
                                           const std::string& method, CallArgs args = {});

  /// Variadic convenience (also works around a GCC 12 bug with braced
  /// init-lists inside co_await expressions). Pass std::int64_t / double /
  /// string-ish values explicitly. An argument list already built (a
  /// vector, CallArgs) takes the overloads above.
  template <class A0, class... A>
    requires(!std::is_convertible_v<A0, CallArgs>)
  [[nodiscard]] sim::Task<CallResult> call(MethodRef callee, A0&& a0, A&&... rest) {
    return call(callee, pack(std::forward<A0>(a0), std::forward<A>(rest)...));
  }
  template <class A0, class... A>
    requires(!std::is_convertible_v<A0, CallArgs>)
  [[nodiscard]] sim::Task<CallResult> call(const std::string& component,
                                           const std::string& method, A0&& a0, A&&... rest) {
    return call(component, method, pack(std::forward<A0>(a0), std::forward<A>(rest)...));
  }

  /// Raw JDBC from this node — the web tier's direct database access the
  /// paper starts from (and the façade rule eliminates).
  [[nodiscard]] sim::Task<db::QueryResult> direct_query(db::Query q);

  /// Entity read through the read-mostly machinery (§4.3): served by a local
  /// read-only replica when deployed, else by the entity's primary. Null
  /// when the row does not exist.
  [[nodiscard]] sim::Task<db::RowRef> read_entity(const std::string& entity, std::int64_t pk);

  /// Aggregate/finder query through the query-cache machinery (§4.4).
  [[nodiscard]] sim::Task<db::QueryResult> cached_query(db::Query q);

  /// Transactional entity update at the primary, then propagation per the
  /// plan's update mode. `affected_queries` are the aggregate queries whose
  /// cached results this write invalidates (declared by the application —
  /// §4.4 leaves invalidating-operation identification to developers).
  [[nodiscard]] sim::Task<void> write_entity(const std::string& entity, std::int64_t pk,
                                             std::string column, db::Value v,
                                             std::vector<db::Query> affected_queries = {});

  /// Transactional insert (new bid, new comment, new order line).
  [[nodiscard]] sim::Task<void> insert_row(const std::string& entity, db::Row row,
                                           std::vector<db::Query> affected_queries = {});

  /// Allocates the next primary key for `table` (container id generator).
  [[nodiscard]] std::int64_t allocate_id(const std::string& table);

  /// Rows returned to the caller (marshalled into the RMI reply).
  std::vector<db::RowRef> result;

  template <class... A>
  [[nodiscard]] static std::vector<db::Value> pack(A&&... a) {
    std::vector<db::Value> v;
    v.reserve(sizeof...(A));
    (v.emplace_back(std::forward<A>(a)), ...);
    return v;
  }

 private:
  friend class Runtime;

  struct PendingWrite {
    EntityId entity = 0;
    std::int64_t pk = 0;
  };

  [[nodiscard]] bool holds_lock(const std::pair<std::string, std::int64_t>& key) const {
    for (const auto& k : tx_locks_) {
      if (k == key) return true;
    }
    return false;
  }

  Runtime& rt_;
  net::NodeId node_;
  const ComponentDef* comp_;
  const MethodDef* method_;
  CallArgs args_;
  TraceSink* trace_ = nullptr;
  std::uint64_t session_key_ = 0;

  // Transaction state: writes made by this method body. All of them commit
  // together when the body finishes — one update batch per transaction,
  // matching §4.3/§4.4's "one bulk RMI call".
  std::vector<PendingWrite> tx_writes_;
  std::vector<db::Query> tx_affected_;
  std::vector<std::pair<std::string, std::int64_t>> tx_locks_;
};

/// The distributed container runtime: resolves invocations against the
/// deployment plan, executes method bodies on node CPUs, and implements the
/// read-mostly / query-cache / update-propagation design rules.
class Runtime {
 public:
  Runtime(sim::Simulator& sim, net::Topology& topo, net::Network& net, net::RmiTransport& rmi,
          db::Database& db, const Application& app, DeploymentPlan plan, RuntimeConfig cfg = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Invokes `callee` on behalf of code running at `caller_node` (HTTP entry
  /// traffic: the caller is the "__client__" pseudo-component). Pass a
  /// TraceSink to collect a per-category time breakdown of the whole call
  /// tree (null = tracing off).
  [[nodiscard]] sim::Task<CallResult> invoke(net::NodeId caller_node, MethodRef callee,
                                             CallArgs args = {}, TraceSink* trace = nullptr,
                                             std::uint64_t session_key = 0);

  /// By name: resolves `component.method` once (std::invalid_argument when
  /// unknown), then takes the handle path.
  [[nodiscard]] sim::Task<CallResult> invoke(net::NodeId caller_node,
                                             const std::string& component,
                                             const std::string& method, CallArgs args = {},
                                             TraceSink* trace = nullptr,
                                             std::uint64_t session_key = 0);

  /// Variadic convenience (see CallContext::call). An argument list already
  /// built (a vector, CallArgs) takes the overload above.
  template <class A0, class... A>
    requires(!std::is_convertible_v<A0, CallArgs>)
  [[nodiscard]] sim::Task<CallResult> invoke(net::NodeId caller_node,
                                             const std::string& component,
                                             const std::string& method, A0&& a0, A&&... rest) {
    return invoke(caller_node, component, method,
                  CallArgs(CallContext::pack(std::forward<A0>(a0), std::forward<A>(rest)...)));
  }

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] const Application& app() const { return app_; }
  [[nodiscard]] const DeploymentPlan& plan() const { return plan_; }
  [[nodiscard]] DeploymentPlan& plan() { return plan_; }
  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Topology& topology() { return topo_; }
  [[nodiscard]] net::RmiTransport& rmi() { return rmi_; }
  [[nodiscard]] db::Database& database() { return db_; }
  /// Read-staleness accounting (reads/stale_reads/version lag) over the
  /// master-version tracker that every replica read is checked against.
  [[nodiscard]] cache::ConsistencyTracker& consistency() { return consistency_; }
  [[nodiscard]] LockManager& locks() { return locks_; }
  [[nodiscard]] StubCache& stubs() { return stubs_; }

  /// `node`'s replica of `entity` (created on first use).
  [[nodiscard]] cache::ReadOnlyCache& ro_cache(net::NodeId node, const std::string& entity);
  [[nodiscard]] cache::QueryCache& query_cache(net::NodeId node);
  [[nodiscard]] db::JdbcClient& jdbc_for(net::NodeId node);

  /// Crash-restart hook: a restarted server loses its in-memory replica
  /// state and must re-warm. Drops every ReadOnlyCache entry, the
  /// QueryCache, and the cached remote stubs held at `node`.
  void clear_node_caches(net::NodeId node);

  /// Zeroes the hit/miss/push counters of every cache without touching the
  /// cached entries. Trial harnesses call this at the warm/measure boundary
  /// so per-trial metrics are not contaminated by warm-up traffic.
  void reset_cache_stats();

  // --- per-node metrics ----------------------------------------------------
  /// The metrics registry for `node` (created on first use).
  [[nodiscard]] stats::MetricsRegistry& metrics(net::NodeId node) { return metrics_[node]; }
  [[nodiscard]] const std::map<net::NodeId, stats::MetricsRegistry>& metrics_by_node() const {
    return metrics_;
  }

  /// Attaches the application and update transports' live resilience
  /// counters (retries, timeouts, breaker transitions) to the main server's
  /// registry.
  void enable_transport_metrics() {
    rmi_.set_metrics(&metrics(plan_.main_server()), "rmi.");
    update_rmi_->set_metrics(&metrics(plan_.main_server()), "push_rmi.");
  }

  /// Snapshots cache / topic / consistency / degradation counters into the
  /// per-node registries and records one TimeSeries sample per gauge-like
  /// quantity. Read-only: sampling never perturbs the simulation.
  void sample_metrics(sim::SimTime now, sim::Duration window);

  /// The read-write master's binding to its table, via the Application.
  void bind_entity(const std::string& entity, std::string table) {
    Entity& e = entities_[intern_entity(entity)];
    e.table = std::move(table);
    e.bound = true;
  }
  [[nodiscard]] const std::string& entity_table(const std::string& entity) const {
    return entities_[bound_entity(entity)].table;
  }

  /// One edge of the measured component interaction graph: who invoked
  /// whom, how often, carrying how many bytes. Feeds the placement
  /// optimizer (core/placement). Pseudo-components: "__client__" for HTTP
  /// entry traffic, "__database__" for raw JDBC, "query:<name>" for
  /// aggregate/finder query classes.
  struct InteractionStat {
    std::uint64_t calls = 0;
    std::uint64_t writes = 0;
    net::Bytes bytes = 0;
  };
  using InteractionProfile = std::map<std::pair<std::string, std::string>, InteractionStat>;

  /// The profile keyed by (caller, callee) name, in name order. Built on
  /// each call from the dense per-call counters; a report edge.
  [[nodiscard]] InteractionProfile interaction_profile() const;
  void reset_interaction_profile() {
    for (auto& row : profile_) std::fill(row.begin(), row.end(), InteractionStat{});
  }

  [[nodiscard]] std::uint64_t blocking_pushes() const { return blocking_pushes_; }
  [[nodiscard]] std::uint64_t failed_pushes() const { return failed_pushes_; }
  [[nodiscard]] std::uint64_t async_publishes() const { return async_publishes_; }
  [[nodiscard]] std::uint64_t bounded_waits() const { return bounded_waits_; }
  /// Shard 0's update topic (the only one with an unsharded data tier).
  [[nodiscard]] msg::Topic<cache::UpdateBatch>* update_topic() {
    return topics_.empty() ? nullptr : topics_.front().get();
  }
  /// Shard `s`'s update topic; one per data-tier shard under async updates.
  [[nodiscard]] msg::Topic<cache::UpdateBatch>* update_topic(std::size_t s) {
    return s < topics_.size() ? topics_[s].get() : nullptr;
  }
  [[nodiscard]] std::size_t update_topic_count() const { return topics_.size(); }

  // --- graceful degradation accounting ------------------------------------
  [[nodiscard]] std::uint64_t degraded_reads() const { return degraded_reads_; }
  [[nodiscard]] std::uint64_t queued_writes() const { return queued_writes_; }
  [[nodiscard]] std::uint64_t queued_writes_applied() const { return queued_writes_applied_; }
  [[nodiscard]] std::uint64_t queued_writes_dropped() const { return queued_writes_dropped_; }
  [[nodiscard]] std::uint64_t cache_rewarms() const { return cache_rewarms_; }

  /// True when all asynchronously published updates have been applied —
  /// nothing in flight on any shard topic.
  [[nodiscard]] bool updates_quiescent() const {
    for (const auto& t : topics_) {
      if (!t->quiescent()) return false;
    }
    return true;
  }

  // --- runtime placement (DESIGN §17) --------------------------------------
  /// Installs (or removes, with null) the versioned runtime binding table.
  /// With a table installed, every dispatch resolves the callee's location
  /// through it instead of the static plan; an empty table resolves with
  /// exactly the plan's rule, so installation alone is byte-identical
  /// (golden-enforced).
  void set_binding_table(const BindingTable* bindings) {
    bindings_ = bindings;
    bound_seen_ = 0;
    binding_of_.assign(app_.component_count(), nullptr);
  }
  [[nodiscard]] const BindingTable* binding_table() const { return bindings_; }

  /// The migration quiesce gate for `component` (created open on first
  /// use). The dispatch path only consults gates that already exist, so a
  /// run that never migrates never allocates one.
  [[nodiscard]] net::CreditGate& component_gate(const std::string& component);
  [[nodiscard]] net::CreditGate* find_component_gate(const std::string& component);

  /// Calls for `component` currently past the quiesce gate and not yet
  /// completed (counted only while a binding table is installed).
  [[nodiscard]] std::uint64_t component_in_flight(const std::string& component) const;

  /// Subscribes `node` to every update topic unless it already is (the
  /// constructor subscribes the initial update targets). Used when a
  /// migration adds a replica site after construction; removed members are
  /// handled by apply_batch's membership checks, so nodes never
  /// unsubscribe.
  void ensure_update_subscription(net::NodeId node);

  /// Ships `from`'s replica entries for `entities` (and its query cache,
  /// when `move_query_cache`) to `to` — one bulk RMI per cache on the
  /// update transport, installed through the version-monotonic apply_push
  /// so the snapshot can never roll back a concurrent push. Returns the
  /// number of entries shipped.
  [[nodiscard]] sim::Task<std::uint64_t> transfer_replica_state(net::NodeId from, net::NodeId to,
                                                                std::vector<std::string> entities,
                                                                bool move_query_cache);

  /// Drops `node`'s replica entries for `entities` (and its query cache
  /// entries, when `move_query_cache`). Migration retirement / rollback;
  /// find-only, so it never creates caches at `node`.
  void clear_replica_state(net::NodeId node, const std::vector<std::string>& entities,
                           bool move_query_cache);

  /// Stragglers the old site forwarded to the new authority during a
  /// forwarding epoch.
  [[nodiscard]] std::uint64_t forwarded_calls() const { return forwarded_calls_; }
  /// Non-authoritative arrivals after the forwarding epoch expired (still
  /// forwarded — correctness over protocol purity — but counted separately;
  /// the property battery asserts this stays zero).
  [[nodiscard]] std::uint64_t late_stragglers() const { return late_stragglers_; }

  /// True when every queued degraded-mode write has been applied (or
  /// dropped after exhausting redelivery).
  [[nodiscard]] bool write_queues_quiescent() const {
    return queued_writes_ == queued_writes_applied_ + queued_writes_dropped_;
  }

 private:
  friend class CallContext;

  /// A façade write accepted at an edge while the master was unreachable,
  /// queued through a local JMS topic for redelivery (graceful degradation).
  struct QueuedWrite {
    EntityId entity = 0;
    db::Query write;
    std::vector<db::Query> affected;
  };

  /// Heterogeneous-lookup hash: name tables are probed with string views,
  /// so a lookup never builds a key.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex = std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;

  /// One entity bean type, by id. Lives in a deque: references stay valid
  /// across the suspension points of a read while new names are interned.
  struct Entity {
    std::string name;
    std::string table;
    bool bound = false;          // bind_entity ran
    std::uint32_t endpoint = 0;  // interaction-profile endpoint
    /// Read-only replicas by node id (null until first used there).
    std::vector<std::unique_ptr<cache::ReadOnlyCache>> ro_caches;
  };

  /// The deployment plan's per-call facts, indexed by id. Rebuilt whenever
  /// the plan's revision moves, so run-time mutations (live migration)
  /// reach the per-call path.
  struct PlanIndex {
    std::uint64_t revision = 0;
    bool built = false;
    /// By component id: the placement list (empty = not placed).
    std::vector<std::vector<net::NodeId>> placement;
    /// By entity id, then node id: 1 when the plan puts a replica there.
    std::vector<std::vector<std::uint8_t>> ro_member;
    /// By entity id: the plan replicates it anywhere.
    std::vector<std::uint8_t> ro_any;
    /// By node id: 1 when the plan puts a query cache there.
    std::vector<std::uint8_t> query_cache;
    /// Edge nodes that must receive updates, in update_targets() order.
    std::vector<net::NodeId> update_targets;
  };

  [[nodiscard]] const PlanIndex& plan_index() {
    if (!index_.built || index_.revision != plan_.revision()) reindex_plan();
    return index_;
  }
  void reindex_plan();
  [[nodiscard]] static bool member(const std::vector<std::uint8_t>& v, net::NodeId n) {
    return n.value() < v.size() && v[n.value()] != 0;
  }
  /// The plan's dispatch rule by id: the co-located replica when one
  /// exists, else the primary.
  [[nodiscard]] net::NodeId resolve_in_plan(ComponentId component, net::NodeId from);

  /// The entity's id, interning a new name.
  EntityId intern_entity(std::string_view name);
  /// The id of a bound entity; throws std::invalid_argument otherwise.
  [[nodiscard]] EntityId bound_entity(std::string_view name) const;
  [[nodiscard]] cache::ReadOnlyCache& ro_cache(net::NodeId node, EntityId entity);
  [[nodiscard]] std::string version_label(EntityId entity, std::int64_t pk) const {
    return entities_[entity].name + ":" + std::to_string(pk);
  }

  /// The interaction-profile endpoint of `name`, interning a new name.
  std::uint32_t intern_endpoint(std::string_view name);
  /// The endpoint of a query's class ("query:<table or aggregate>").
  std::uint32_t query_endpoint(const db::Query& q);

  /// The runtime binding of `component`, or null while it is unbound.
  [[nodiscard]] const BindingTable::Binding* binding_for(ComponentId component);

  /// True when the middleware-level degradation policy is active.
  [[nodiscard]] bool degraded_mode() const { return rmi_.resilience().enabled; }

  /// Bounded staleness check for degraded reads: the entry at `version` may
  /// be served when it lags the master by at most the plan's TACT staleness
  /// bound (0 = unbounded during degradation).
  template <class Key>
  [[nodiscard]] bool within_staleness_bound(const Key& vkey, std::uint64_t version) {
    const std::uint32_t bound = plan_.staleness_bound();
    if (bound == 0) return true;  // degraded mode accepts any age
    return consistency_.master_version(vkey) - version <= bound;
  }

  /// Per-edge store-and-forward write queue (provider co-located with the
  /// edge, subscriber at the master).
  [[nodiscard]] msg::Topic<QueuedWrite>& write_queue(net::NodeId edge);
  [[nodiscard]] sim::Task<void> apply_queued_write(QueuedWrite w);

  // NOTE: coroutine — all parameters by value. A const-ref parameter would
  // dangle when the lazy task outlives the caller's temporaries (e.g. a
  // default argument constructed in a non-coroutine forwarding wrapper).
  // `caller_endpoint` is the caller's interaction-profile endpoint: its
  // ComponentId for a nested call, client_endpoint_ for HTTP entry.
  [[nodiscard]] sim::Task<CallResult> call_from(net::NodeId caller, MethodRef callee,
                                                CallArgs args,
                                                std::uint32_t caller_endpoint, TraceSink* trace,
                                                std::uint64_t session_key);

  void record_interaction(std::uint32_t caller, std::uint32_t callee, net::Bytes bytes,
                          bool is_write = false) {
    if (caller >= profile_.size()) profile_.resize(caller + 1);
    std::vector<InteractionStat>& row = profile_[caller];
    if (callee >= row.size()) row.resize(endpoint_names_.size());
    InteractionStat& stat = row[callee];
    ++stat.calls;
    if (is_write) ++stat.writes;
    stat.bytes += bytes;
  }

  [[nodiscard]] sim::Task<void> dispatch(net::NodeId node, const ComponentDef& comp,
                                         const MethodDef& method, CallArgs args,
                                         std::vector<db::RowRef>* out, TraceSink* trace,
                                         std::uint64_t session_key = 0);

  [[nodiscard]] sim::Task<db::RowRef> read_entity_impl(net::NodeId node, EntityId entity,
                                                       std::int64_t pk, TraceSink* trace);

  [[nodiscard]] sim::Task<db::QueryResult> cached_query_impl(net::NodeId node, db::Query q,
                                                             TraceSink* trace);

  /// Executes a query at the main server (locally or via one façade RMI).
  /// When `pre_version` is non-null, the master version of `cache_key` (the
  /// query's key, built once by the caller) is captured *at the primary*,
  /// immediately before the query executes — the latest instant that still
  /// cannot claim a version newer than the data read.
  [[nodiscard]] sim::Task<db::QueryResult> query_at_main(net::NodeId from, db::Query q,
                                                         TraceSink* trace,
                                                         const std::string* cache_key = nullptr,
                                                         std::uint64_t* pre_version = nullptr);

  /// Applies one write. When `ctx` is non-null the write joins the calling
  /// method's transaction (deferred propagation); a null ctx commits it as
  /// a standalone transaction, tracing into `trace` (the edge->primary write
  /// route threads the caller's sink through so the remote commit's lock,
  /// JDBC and push time stay on the traced request's books).
  [[nodiscard]] sim::Task<void> write_impl(CallContext* ctx, net::NodeId node, EntityId entity,
                                           db::Query write,
                                           std::vector<db::Query> affected_queries,
                                           TraceSink* trace = nullptr);

  /// Commits the transaction accumulated in `ctx`: builds one update batch,
  /// propagates it per the plan's update mode, bumps master versions at the
  /// right instant (after blocking pushes, before async publish), releases
  /// locks.
  [[nodiscard]] sim::Task<void> commit_transaction(CallContext& ctx);

  [[nodiscard]] sim::Task<void> propagate(const std::vector<CallContext::PendingWrite>& writes,
                                          const std::vector<db::Query>& affected,
                                          TraceSink* trace);

  /// One transaction's pre-allocated versions: entity keys, and the
  /// affected queries' keys (each built once) with their versions.
  struct TxVersions {
    std::vector<std::pair<cache::EntityKey, std::uint64_t>> entities;
    std::vector<std::string> query_keys;  // parallel to the affected queries
    std::vector<std::pair<std::string, std::uint64_t>> queries;  // distinct keys

    [[nodiscard]] std::uint64_t of(const cache::EntityKey& k) const {
      for (const auto& [key, v] : entities) {
        if (key == k) return v;
      }
      return 0;
    }
    [[nodiscard]] std::uint64_t of(const std::string& k) const {
      for (const auto& [key, v] : queries) {
        if (key == k) return v;
      }
      return 0;
    }
  };

  /// Builds the update batch for a set of committed writes, stamping each
  /// entry with its pre-allocated version.
  [[nodiscard]] cache::UpdateBatch build_batch(
      const std::vector<CallContext::PendingWrite>& writes,
      const std::vector<db::Query>& affected, const TxVersions& versions);

  [[nodiscard]] sim::Task<void> push_blocking(cache::UpdateBatch batch, TraceSink* trace);
  [[nodiscard]] sim::Task<void> publish_async(cache::UpdateBatch batch, TraceSink* trace);
  [[nodiscard]] sim::Task<void> apply_batch(net::NodeId node, const cache::UpdateBatch& batch);

  /// Splits a transaction's batch into per-shard-topic lanes: entity
  /// updates route by their primary key's owner shard, query refreshes
  /// (whose results span shards) ride the coordinator lane 0.
  [[nodiscard]] std::vector<cache::UpdateBatch> split_by_shard(cache::UpdateBatch batch) const;

  /// Edge nodes that must receive updates (RO replicas or query caches).
  [[nodiscard]] const std::vector<net::NodeId>& update_targets() {
    return plan_index().update_targets;
  }

  /// Observes a read through the ConsistencyTracker and, under
  /// MUTSVC_SIMCHECK, hard-fails on a stale read whenever the §4.3
  /// zero-staleness invariant applies (blocking push, no failed pushes, no
  /// degraded reads).
  template <class Key>
  void note_read(const Key& key, std::uint64_t seen_version) {
    consistency_.observe_read(key, seen_version);
    if (simcheck::enabled()) probe_staleness();
  }
  void probe_staleness();

  static net::Bytes values_bytes(std::span<const db::Value> vals);
  static net::Bytes rows_bytes(const std::vector<db::RowRef>& rows);

  sim::Simulator& sim_;
  net::Topology& topo_;
  net::Network& net_;
  net::RmiTransport& rmi_;
  db::Database& db_;
  const Application& app_;
  DeploymentPlan plan_;
  RuntimeConfig cfg_;

  /// Dedicated transport for update propagation (§4.3): the updater façade
  /// keeps hot container-to-container connections, so pushes pay exactly
  /// one round trip (no ping/DGC extras).
  std::unique_ptr<net::RmiTransport> update_rmi_;

  LockManager locks_;
  StubCache stubs_;
  /// Master versions (allocate / advance_to / master_version) plus the
  /// read-staleness stats of every replica read.
  cache::ConsistencyTracker consistency_;

  // Name tables, built once: strings stay at the API entry points and the
  // report edges; the per-call path indexes by id.
  /// Interaction-profile endpoints: components first (a ComponentId is its
  /// own endpoint), then the pseudo-components, entities and query classes
  /// in order of first sight.
  std::vector<std::string> endpoint_names_;
  NameIndex endpoint_ids_;
  std::uint32_t client_endpoint_ = 0;
  std::uint32_t database_endpoint_ = 0;
  /// Bare query-class name (table or aggregate) -> endpoint of "query:<name>".
  NameIndex query_endpoints_;
  std::deque<Entity> entities_;
  NameIndex entity_ids_;
  PlanIndex index_;

  std::map<net::NodeId, std::unique_ptr<cache::QueryCache>> query_caches_;
  std::map<net::NodeId, std::unique_ptr<db::JdbcClient>> jdbc_clients_;
  /// One update topic per data-tier shard (lane s carries shard s's dirty
  /// rows); empty unless the plan runs async updates.
  std::vector<std::unique_ptr<msg::Topic<cache::UpdateBatch>>> topics_;
  std::map<net::NodeId, std::unique_ptr<msg::Topic<QueuedWrite>>> write_queues_;
  /// Interaction counters, [caller endpoint][callee endpoint].
  std::vector<std::vector<InteractionStat>> profile_;
  std::map<net::NodeId, stats::MetricsRegistry> metrics_;

  // Runtime placement (DESIGN §17). All null/empty unless the experiment
  // installs a binding table; every placement branch in the hot path is
  // `bindings_ != nullptr`-gated, so a disabled run is bit-identical.
  const BindingTable* bindings_ = nullptr;
  /// By component id: the table's binding (null = unbound), refreshed when
  /// the table binds another component.
  std::vector<const BindingTable::Binding*> binding_of_;
  std::size_t bound_seen_ = 0;
  /// By component id; null until a migration first gates the component.
  std::vector<std::unique_ptr<net::CreditGate>> component_gates_;
  std::vector<std::uint64_t> component_in_flight_;
  std::set<net::NodeId> update_subscribers_;
  std::uint64_t forwarded_calls_ = 0;
  std::uint64_t late_stragglers_ = 0;

  std::uint64_t blocking_pushes_ = 0;
  std::uint64_t failed_pushes_ = 0;
  std::uint64_t async_publishes_ = 0;
  std::uint64_t bounded_waits_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t queued_writes_ = 0;
  std::uint64_t queued_writes_applied_ = 0;
  std::uint64_t queued_writes_dropped_ = 0;
  std::uint64_t cache_rewarms_ = 0;
};

}  // namespace mutsvc::comp
