#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "component/kind.hpp"
#include "net/types.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mutsvc::comp {

class CallContext;

/// A method body is a coroutine written against the CallContext API; it can
/// consume CPU, call other components, issue queries, and read/write
/// entity state. Bodies may be empty (pure-cost methods).
using MethodBody = std::function<sim::Task<void>(CallContext&)>;

struct MethodDef {
  std::string name;
  sim::Duration cpu = sim::us(300);   // business-logic demand at the hosting node
  /// Non-CPU service latency (blocking I/O, reflection, GC, logging) — the
  /// part of a J2EE request's residence time that does not saturate a
  /// processor. Keeps modelled CPU utilization in the paper's <40% band
  /// while matching observed local response times.
  sim::Duration latency = sim::Duration::zero();
  net::Bytes args_bytes = 200;        // marshalled argument size
  net::Bytes result_bytes = 400;      // marshalled result size (excluding data rows)
  MethodBody body;                    // empty => cost-only method
};

/// Dense component index: components numbered 0..n-1 in name order.
using ComponentId = std::uint32_t;

/// A component type: an EJB, servlet, or web helper, with its methods.
class ComponentDef {
 public:
  ComponentDef(std::string name, ComponentKind kind)
      : name_(std::move(name)), kind_(kind) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ComponentKind kind() const { return kind_; }
  /// This component's rank in its Application's name order. Fixed once the
  /// application is fully defined; every per-call table is indexed by it.
  [[nodiscard]] ComponentId id() const { return id_; }

  /// EJB 2.0 local interfaces (§5): a local-only component may never be the
  /// target of a remote invocation; the runtime enforces this.
  ComponentDef& local_interface_only(bool v = true) {
    local_only_ = v;
    return *this;
  }
  [[nodiscard]] bool is_local_only() const { return local_only_; }

  ComponentDef& method(MethodDef m) {
    auto name = m.name;
    if (!methods_.emplace(name, std::move(m)).second) {
      throw std::invalid_argument("ComponentDef " + name_ + ": duplicate method " + name);
    }
    return *this;
  }

  [[nodiscard]] const MethodDef& find_method(const std::string& m) const {
    auto it = methods_.find(m);
    if (it == methods_.end()) {
      throw std::invalid_argument("ComponentDef " + name_ + ": no method " + m);
    }
    return it->second;
  }

  [[nodiscard]] const std::map<std::string, MethodDef>& methods() const { return methods_; }

 private:
  friend class Application;

  std::string name_;
  ComponentKind kind_;
  ComponentId id_ = 0;
  bool local_only_ = false;
  std::map<std::string, MethodDef> methods_;
};

/// A component method resolved once, when the application is defined. Method
/// bodies and load drivers call through it, so the per-call path never looks
/// a component or method up by name. Both pointers stay valid for the life of
/// the Application (its definitions are node-stable).
struct MethodRef {
  const ComponentDef* component = nullptr;
  const MethodDef* method = nullptr;
};

/// A component-based application: the registry of component definitions.
class Application {
 public:
  explicit Application(std::string name) : name_(std::move(name)) {}

  // Handles (MethodRef, the id index) point into this object's definitions:
  // a move keeps them valid, a copy would not.
  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;
  Application(Application&&) = default;
  Application& operator=(Application&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  ComponentDef& define(const std::string& name, ComponentKind kind) {
    auto [it, inserted] = components_.emplace(name, ComponentDef{name, kind});
    if (!inserted) throw std::invalid_argument("Application: component exists: " + name);
    // Ids follow name order, so every loop over ids keeps the order a loop
    // over names had.
    by_id_.clear();
    for (auto& [n, def] : components_) {
      def.id_ = static_cast<ComponentId>(by_id_.size());
      by_id_.push_back(&def);
    }
    return it->second;
  }

  [[nodiscard]] const ComponentDef& component(const std::string& name) const {
    auto it = components_.find(name);
    if (it == components_.end()) {
      throw std::invalid_argument("Application " + name_ + ": no component " + name);
    }
    return it->second;
  }

  [[nodiscard]] const ComponentDef& component(ComponentId id) const { return *by_id_.at(id); }

  /// Resolves `component.method` to a handle; throws std::invalid_argument
  /// for an unknown component or method.
  [[nodiscard]] MethodRef method_ref(const std::string& component,
                                     const std::string& method) const {
    const ComponentDef& def = this->component(component);
    return MethodRef{&def, &def.find_method(method)};
  }

  [[nodiscard]] bool has_component(const std::string& name) const {
    return components_.contains(name);
  }

  [[nodiscard]] std::vector<std::string> component_names() const {
    std::vector<std::string> out;
    out.reserve(components_.size());
    for (const auto& [k, v] : components_) out.push_back(k);
    return out;
  }

  [[nodiscard]] std::size_t component_count() const { return components_.size(); }

 private:
  std::string name_;
  std::map<std::string, ComponentDef> components_;
  std::vector<const ComponentDef*> by_id_;  // components_ in id (= name) order
};

}  // namespace mutsvc::comp
