#include "core/failpoint.h"

#include <unistd.h>

#include <cstdlib>
#include <random>
#include <unordered_map>

#include "core/sync.h"
#include "core/telemetry.h"

namespace vdb {

namespace {

bool ConsumePrefix(std::string_view* s, std::string_view prefix) {
  if (s->substr(0, prefix.size()) != prefix) return false;
  s->remove_prefix(prefix.size());
  return true;
}

bool ParseU64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseProb(std::string_view s, double* out) {
  try {
    std::size_t used = 0;
    double v = std::stod(std::string(s), &used);
    // !(v >= 0 && v <= 1) rather than (v < 0 || v > 1): NaN compares
    // false both ways, so the naive form would accept "prob:nan".
    if (used != s.size() || !(v >= 0.0 && v <= 1.0)) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

Result<FailpointSpec> ParseFailpointSpec(std::string_view text) {
  FailpointSpec spec;
  if (text.empty()) return spec;
  while (!text.empty()) {
    std::size_t plus = text.find('+');
    std::string_view tok = text.substr(0, plus);
    text = plus == std::string_view::npos ? std::string_view{}
                                          : text.substr(plus + 1);
    std::uint64_t n = 0;
    if (tok == "always") {
      // defaults already fire always
    } else if (tok == "off") {
      spec.times = 0;
    } else if (ConsumePrefix(&tok, "prob:")) {
      if (!ParseProb(tok, &spec.probability)) {
        return Status::InvalidArgument("failpoint prob must be in [0,1]");
      }
    } else if (ConsumePrefix(&tok, "every:")) {
      if (!ParseU64(tok, &n) || n == 0) {
        return Status::InvalidArgument("failpoint every:<n> needs n >= 1");
      }
      spec.every = n;
    } else if (ConsumePrefix(&tok, "times:")) {
      if (!ParseU64(tok, &n)) {
        return Status::InvalidArgument("failpoint times:<n> needs a count");
      }
      spec.times = static_cast<std::int64_t>(n);
    } else if (ConsumePrefix(&tok, "after:")) {
      if (!ParseU64(tok, &n)) {
        return Status::InvalidArgument("failpoint after:<n> needs a count");
      }
      spec.skip = n;
    } else if (ConsumePrefix(&tok, "delay:")) {
      if (!ParseU64(tok, &n)) {
        return Status::InvalidArgument("failpoint delay:<ms> needs a count");
      }
      spec.delay_ms = static_cast<std::uint32_t>(n);
    } else {
      return Status::InvalidArgument("unknown failpoint token: " +
                                     std::string(tok));
    }
  }
  return spec;
}

std::atomic<int> Failpoints::armed_count_{0};

struct Failpoints::Impl {
  struct Entry {
    FailpointSpec spec;
    bool armed = false;
    std::uint64_t evaluations = 0;  ///< since (re-)armed; drives skip/every
    std::uint64_t triggers = 0;     ///< since (re-)armed; drives times
    std::uint64_t lifetime_evaluations = 0;
    std::uint64_t lifetime_triggers = 0;
  };
  /// §9.1 edge: Fires()/Arm() call into Registry while holding mu, so
  /// Failpoints::mu -> Registry::mu (never reversed; Registry::mu is a
  /// leaf and Registry never calls back into Failpoints).
  mutable Mutex mu;
  std::unordered_map<std::string, Entry> entries VDB_GUARDED_BY(mu);
  /// Deterministic prob draws.
  std::mt19937_64 rng VDB_GUARDED_BY(mu){0x9E3779B97F4A7C15ull};
};

Failpoints& Failpoints::Instance() {
  static Failpoints instance;
  return instance;
}

Failpoints::Failpoints() : impl_(new Impl) {
  if (const char* env = std::getenv("VDB_FAILPOINTS")) {
    (void)ArmFromString(env);  // malformed entries are skipped, not fatal
  }
}

void Failpoints::Arm(const std::string& name, FailpointSpec spec) {
  MutexLock lock(impl_->mu);
  Impl::Entry& e = impl_->entries[name];
  if (!e.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  e.armed = true;
  e.spec = spec;
  e.evaluations = 0;
  e.triggers = 0;
  // Lock order is always Failpoints::mu -> Registry::mu (never reversed).
  static Counter& arms =
      Registry::Global().GetCounter("vdb_failpoint_arms_total");
  arms.Inc();
}

Status Failpoints::Arm(const std::string& name, std::string_view spec_text) {
  VDB_ASSIGN_OR_RETURN(FailpointSpec spec, ParseFailpointSpec(spec_text));
  Arm(name, spec);
  return Status::Ok();
}

Status Failpoints::ArmFromString(std::string_view config) {
  Status first_error = Status::Ok();
  while (!config.empty()) {
    std::size_t sep = config.find(';');
    std::string_view entry = config.substr(0, sep);
    config = sep == std::string_view::npos ? std::string_view{}
                                           : config.substr(sep + 1);
    if (entry.empty()) continue;
    std::size_t eq = entry.find('=');
    std::string_view name = entry.substr(0, eq);
    std::string_view spec =
        eq == std::string_view::npos ? std::string_view{} : entry.substr(eq + 1);
    if (name.empty()) {
      if (first_error.ok()) {
        first_error = Status::InvalidArgument("empty failpoint name");
      }
      continue;
    }
    Status s = Arm(std::string(name), spec);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

bool Failpoints::Disarm(const std::string& name) {
  MutexLock lock(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end() || !it->second.armed) return false;
  it->second.armed = false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void Failpoints::DisarmAll() {
  MutexLock lock(impl_->mu);
  for (auto& [name, e] : impl_->entries) {
    if (e.armed) {
      e.armed = false;
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

bool Failpoints::Fires(const char* name) {
  MutexLock lock(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end() || !it->second.armed) return false;
  Impl::Entry& e = it->second;
  ++e.lifetime_evaluations;
  std::uint64_t n = e.evaluations++;
  if (n < e.spec.skip) return false;
  if (e.spec.times >= 0 &&
      e.triggers >= static_cast<std::uint64_t>(e.spec.times)) {
    return false;
  }
  if ((n - e.spec.skip) % e.spec.every != 0) return false;
  if (e.spec.probability < 1.0) {
    double draw = std::uniform_real_distribution<double>(0.0, 1.0)(impl_->rng);
    if (draw >= e.spec.probability) return false;
  }
  ++e.triggers;
  ++e.lifetime_triggers;
  // Fires are rare (fault injection only), so the per-name registry
  // lookup here is off any hot path.
  Registry::Global()
      .GetCounter("vdb_failpoint_fires_total{name=\"" + std::string(name) +
                  "\"}")
      .Inc();
  return true;
}

std::uint32_t Failpoints::DelayMs(const std::string& name) const {
  MutexLock lock(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end() || !it->second.armed) return 0;
  return it->second.spec.delay_ms;
}

std::uint64_t Failpoints::Evaluations(const std::string& name) const {
  MutexLock lock(impl_->mu);
  auto it = impl_->entries.find(name);
  return it == impl_->entries.end() ? 0 : it->second.lifetime_evaluations;
}

std::uint64_t Failpoints::Triggers(const std::string& name) const {
  MutexLock lock(impl_->mu);
  auto it = impl_->entries.find(name);
  return it == impl_->entries.end() ? 0 : it->second.lifetime_triggers;
}

std::vector<std::string> Failpoints::ArmedNames() const {
  MutexLock lock(impl_->mu);
  std::vector<std::string> names;
  for (const auto& [name, e] : impl_->entries) {
    if (e.armed) names.push_back(name);
  }
  return names;
}

bool FailpointFires(const char* name, std::size_t index) {
  if (!Failpoints::AnyArmed()) return false;
  std::string indexed = std::string(name) + "." + std::to_string(index);
  if (Failpoints::Instance().Fires(indexed.c_str())) return true;
  return Failpoints::Instance().Fires(name);
}

std::uint32_t FailpointDelayMs(const char* name, std::size_t index) {
  if (!Failpoints::AnyArmed()) return 0;
  std::string indexed = std::string(name) + "." + std::to_string(index);
  Failpoints& fp = Failpoints::Instance();
  if (fp.Fires(indexed.c_str())) {
    std::uint32_t ms = fp.DelayMs(indexed);
    return ms > 0 ? ms : 1;
  }
  if (fp.Fires(name)) {
    std::uint32_t ms = fp.DelayMs(name);
    return ms > 0 ? ms : 1;
  }
  return 0;
}

void FailpointCrashNow(const char* name) {
  if (Failpoints::Instance().Fires(name)) ::_exit(2);
}

// Construct the registry at startup so VDB_FAILPOINTS arms before the
// first fast-path AnyArmed() check can short-circuit it.
namespace {
[[maybe_unused]] const bool kFailpointsEnvArmed =
    (Failpoints::Instance(), true);
}  // namespace

}  // namespace vdb
