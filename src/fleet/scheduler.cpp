#include "fleet/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/checkpoint.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::fleet {

namespace {

/// Per-run fault scope: scope 0 is global, so tenant ids start at 1.
fault::ScopeId run_scope(uint64_t id) { return id + 1; }

struct FleetMetrics {
  obs::Counter& submits;
  obs::Counter& rejects;
  obs::Counter& completes;
  obs::Counter& quarantines;
  obs::Counter& evictions;
  obs::Counter& rehydrations;
  obs::Counter& slices;
  obs::Gauge& active_runs;
  obs::Gauge& queued_runs;
  obs::Gauge& resident_bytes;
};

FleetMetrics& fleet_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static FleetMetrics m{reg.counter("fleet.submit.count"),
                        reg.counter("fleet.reject.count"),
                        reg.counter("fleet.complete.count"),
                        reg.counter("fleet.quarantine.count"),
                        reg.counter("fleet.evict.count"),
                        reg.counter("fleet.rehydrate.count"),
                        reg.counter("fleet.slice.count"),
                        reg.gauge("fleet.active_runs"),
                        reg.gauge("fleet.queued_runs"),
                        reg.gauge("fleet.resident_bytes")};
  return m;
}

void json_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

std::string FleetSummary::render() const {
  std::ostringstream os;
  os << "fleet summary: " << submitted << " submitted, " << completed
     << " completed, " << quarantined << " quarantined, " << rejected
     << " rejected; " << slices << " slices, " << evictions << " evictions, "
     << steps_delivered << " steps delivered\n";
  return std::move(os).str();
}

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config)) {
  if (config_.max_active_runs < 1) {
    throw ConfigError("fleet max_active_runs must be >= 1");
  }
  if (config_.slice_steps < 1) {
    throw ConfigError("fleet slice_steps must be >= 1");
  }
  if (config_.status_interval_slices < 1) {
    throw ConfigError("fleet status_interval_slices must be >= 1");
  }
  if (!config_.checkpoint_dir.empty()) {
    // A missing directory would otherwise fail every supervisor mirror
    // write (silent per-run degrade) and turn every eviction into a
    // quarantine.
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    if (ec) {
      throw IoError("fleet checkpoint_dir '" + config_.checkpoint_dir +
                    "': " + ec.message());
    }
  }
  if (config_.threads > 1) {
    runtime_ = util::TaskRuntime::create(config_.threads);
  }
}

Scheduler::~Scheduler() {
  // A scheduler torn down mid-fleet must not leak tenant fault plans into
  // whatever the process does next.
  for (Record& r : runs_) {
    if (r.fault_armed) fault::disarm_scope(run_scope(r.status.id));
  }
}

uint64_t Scheduler::submit(RunSpec spec) {
  if (spec.name.empty()) throw ConfigError("run spec needs a name");
  for (const Record& r : runs_) {
    if (r.spec.name == spec.name) {
      throw ConfigError("duplicate run name: " + spec.name);
    }
  }
  const uint64_t id = runs_.size();
  runs_.emplace_back();
  Record& r = runs_.back();
  r.spec = std::move(spec);
  r.status.id = id;
  r.status.name = r.spec.name;
  r.status.engine = r.spec.engine;
  r.status.priority = r.spec.priority;
  r.status.steps_target = r.spec.steps;
  fleet_metrics().submits.add();

  auto reject = [&](std::string why) {
    r.status.phase = RunPhase::kRejected;
    r.status.detail = std::move(why);
    fleet_metrics().rejects.add();
    refresh_gauges();
    return id;
  };

  try {
    r.spec.validate();
    if (queue_.size() >= config_.max_queued_runs) {
      return reject("queue full (backpressure: max_queued_runs=" +
                    std::to_string(config_.max_queued_runs) + ")");
    }
    if (config_.memory_budget_bytes) {
      const size_t estimate = estimate_resident_bytes(r.spec);
      if (estimate > config_.memory_budget_bytes) {
        return reject("modeled footprint " + std::to_string(estimate) +
                      " B exceeds fleet memory budget " +
                      std::to_string(config_.memory_budget_bytes) + " B");
      }
    }
    if (!r.spec.fault.empty()) {
      fault::arm_scoped(run_scope(id), fault::parse_fault_plan(r.spec.fault));
      r.fault_armed = true;
    }
  } catch (const ConfigError& e) {
    return reject(e.what());
  }

  r.status.phase = RunPhase::kQueued;
  queue_.push_back(id);
  refresh_gauges();
  return id;
}

std::string Scheduler::checkpoint_path(const Record& r) const {
  if (config_.checkpoint_dir.empty()) return {};
  return config_.checkpoint_dir + "/" + r.spec.name + ".ckpt";
}

bool Scheduler::activate(Record& r) {
  const bool rehydrating = r.has_checkpoint;
  try {
    r.driver = materialize(r.spec, runtime_, config_.threads,
                           checkpoint_path(r));
    if (r.has_checkpoint) {
      io::load_checkpoint_v2_or_backup(checkpoint_path(r),
                                       {{"sim", &r.driver->checkpointable()}});
    }
  } catch (const Error& e) {
    finish(r, RunPhase::kQuarantined,
           std::string(rehydrating ? "rehydration failed: "
                                   : "materialization failed: ") +
               e.what());
    return false;
  }
  r.status.phase = RunPhase::kRunning;
  r.status.steps_done = r.driver->state().step;
  r.steps_at_activation = r.status.steps_done;
  r.credit = 0;
  // Counter baseline: each activation gets a fresh Supervisor whose report
  // starts at zero, so slice accounting adds report values onto this copy.
  r.counters_base = r.status;
  r.status.resident_bytes =
      r.driver->atom_count() * 768 + r.driver->snapshot_bytes();
  active_.push_back(r.status.id);
  if (rehydrating) fleet_metrics().rehydrations.add();
  return true;
}

void Scheduler::activate_from_queue() {
  while (!queue_.empty() && active_.size() < config_.max_active_runs) {
    Record& r = runs_[queue_.front()];
    if (config_.memory_budget_bytes) {
      const size_t estimate = estimate_resident_bytes(r.spec);
      while (resident_bytes() + estimate > config_.memory_budget_bytes &&
             !active_.empty()) {
        Record* victim = pick_victim();
        if (!victim || !evict(*victim)) break;
      }
      // Progress guarantee: with nothing active, the front run is admitted
      // even over budget — its estimate passed admission alone, and an
      // empty fleet that refuses to start anything would be a livelock.
      if (resident_bytes() + estimate > config_.memory_budget_bytes &&
          !active_.empty()) {
        break;  // wait for active runs to finish or become evictable
      }
    }
    queue_.pop_front();
    activate(r);  // on failure the run is quarantined; keep draining
  }
}

void Scheduler::run_slice(Record& r) {
  const uint64_t target = r.spec.steps;
  const uint64_t remaining = target - r.status.steps_done;
  const size_t slice =
      std::min<uint64_t>(config_.slice_steps, remaining);

  resilience::RecoveryReport report;
  {
    // Everything this run executes — its step graph on the worker lanes,
    // its supervisor's checkpoint mirror — runs under its private fault
    // scope, so an armed chaos schedule hits this tenant alone.  The trace
    // scope mirrors it (same id convention): any spans the slice emits land
    // under this run's process with namespaced synthetic tracks.
    fault::CurrentScope scope(run_scope(r.status.id));
    obs::TraceRunScope trace_scope(
        static_cast<uint32_t>(run_scope(r.status.id)), r.spec.name);
    report = r.driver->advance(slice);
  }

  r.status.steps_done = r.driver->state().step;
  ++r.status.slices;
  fleet_metrics().slices.add();
  r.status.faults = r.counters_base.faults + report.faults_detected;
  r.status.retries = r.counters_base.retries + report.retries;
  r.status.rollbacks = r.counters_base.rollbacks + report.rollbacks;
  r.status.restarts = r.counters_base.restarts + report.restarts;
  r.status.node_remaps = r.counters_base.node_remaps + report.node_remaps;
  r.status.watchdog_trips =
      r.counters_base.watchdog_trips + report.watchdog_trips;
  r.status.corruptions = r.counters_base.corruptions + report.corruptions;
  r.status.recovery_modeled_s =
      r.counters_base.recovery_modeled_s + report.recovery_modeled_s;
  r.status.resident_bytes =
      r.driver->atom_count() * 768 + r.driver->snapshot_bytes();
  // Like the counters above: the per-run collector starts at zero each
  // activation, so its totals sit on top of the baseline captured then.
  if (const obs::Profile* p = r.driver->profile()) {
    r.status.has_profile = true;
    for (size_t c = 0; c < obs::kMessageClassCount; ++c) {
      r.status.profile_net_s[c] =
          r.counters_base.profile_net_s[c] +
          p->net(static_cast<obs::MessageClass>(c)).total_s;
    }
    r.status.profile_net_total_s =
        r.counters_base.profile_net_total_s + p->network_total_s();
  }

  if (!report.completed) {
    finish(r, RunPhase::kQuarantined,
           report.final_error.empty() ? "supervisor escalated"
                                      : report.final_error);
    return;
  }
  if (r.status.steps_done >= target) {
    r.status.final_digest = state_digest(r.driver->state());
    r.status.final_potential_energy = r.driver->potential_energy();
    r.status.final_temperature = r.driver->temperature();
    if (config_.retain_final_state && !config_.checkpoint_dir.empty()) {
      try {
        io::save_checkpoint_v2(config_.checkpoint_dir + "/" + r.spec.name +
                                   ".final",
                               {{"sim", &r.driver->checkpointable()}});
      } catch (const IoError&) {
        // Final-state retention is advisory; the run still completed.
      }
    }
    finish(r, RunPhase::kCompleted, {});
  }
}

void Scheduler::finish(Record& r, RunPhase phase, std::string detail) {
  r.status.phase = phase;
  r.status.detail = std::move(detail);
  r.status.resident_bytes = 0;
  // Fold the run's attribution into the fleet-wide profile before its
  // collector dies with the driver.
  if (r.driver) {
    if (const obs::Profile* p = r.driver->profile()) {
      obs::Profile::global().merge_network(*p);
    }
  }
  r.driver.reset();
  remove_active(r.status.id);
  if (r.fault_armed) {
    fault::disarm_scope(run_scope(r.status.id));
    r.fault_armed = false;
  }
  if (phase == RunPhase::kCompleted) fleet_metrics().completes.add();
  if (phase == RunPhase::kQuarantined) fleet_metrics().quarantines.add();
}

bool Scheduler::evict(Record& r) {
  if (!r.driver) return false;
  const std::string path = checkpoint_path(r);
  if (path.empty()) return false;  // nowhere to park
  try {
    io::rotate_backup(path);
    io::save_checkpoint_v2(path, {{"sim", &r.driver->checkpointable()}});
  } catch (const IoError& e) {
    // A run that can neither stay resident nor be parked is quarantined
    // with the reason; its siblings keep their budget headroom.
    finish(r, RunPhase::kQuarantined,
           std::string("eviction checkpoint failed: ") + e.what());
    return true;  // the budget pressure is relieved either way
  }
  r.has_checkpoint = true;
  r.status.phase = RunPhase::kEvicted;
  r.status.resident_bytes = 0;
  ++r.status.evictions;
  ++evictions_;
  if (const obs::Profile* p = r.driver->profile()) {
    obs::Profile::global().merge_network(*p);
  }
  r.driver.reset();
  remove_active(r.status.id);
  queue_.push_back(r.status.id);
  fleet_metrics().evictions.add();
  return true;
}

void Scheduler::enforce_memory_budget() {
  if (!config_.memory_budget_bytes) return;
  while (resident_bytes() > config_.memory_budget_bytes &&
         active_.size() > 1) {
    Record* victim = pick_victim();
    if (!victim || !evict(*victim)) return;
  }
}

Scheduler::Record* Scheduler::pick_victim() {
  // The victim has made the most progress since activation: it amortized
  // its materialization cost best and can best afford the round trip.
  // Ties prefer lower priority, then the younger run.  Runs that have not
  // progressed since activation are not evictable — every activation gets
  // at least one slice, which rules out admission/eviction livelock.
  Record* best = nullptr;
  uint64_t best_progress = 0;
  for (uint64_t id : active_) {
    Record& r = runs_[id];
    if (!r.driver) continue;
    const uint64_t progress = r.status.steps_done - r.steps_at_activation;
    if (progress == 0) continue;
    if (!best || progress > best_progress ||
        (progress == best_progress &&
         (r.spec.priority < best->spec.priority ||
          (r.spec.priority == best->spec.priority &&
           r.status.id > best->status.id)))) {
      best = &r;
      best_progress = progress;
    }
  }
  return best;
}

void Scheduler::remove_active(uint64_t id) {
  active_.erase(std::remove(active_.begin(), active_.end(), id),
                active_.end());
}

size_t Scheduler::resident_bytes() const {
  size_t total = 0;
  for (uint64_t id : active_) total += runs_[id].status.resident_bytes;
  return total;
}

bool Scheduler::pump() {
  activate_from_queue();
  if (!active_.empty()) {
    // Stride scheduling: credit grows with priority each round; the
    // richest run gets the slice and pays the round's total back, so
    // long-term slice share converges to priority share and every run's
    // credit keeps growing until served (no starvation).
    uint64_t round_total = 0;
    Record* chosen = nullptr;
    for (uint64_t id : active_) {
      Record& r = runs_[id];
      r.credit += static_cast<uint64_t>(r.spec.priority);
      round_total += static_cast<uint64_t>(r.spec.priority);
      if (!chosen || r.credit > chosen->credit ||
          (r.credit == chosen->credit && r.status.id < chosen->status.id)) {
        chosen = &r;
      }
    }
    chosen->credit -= std::min(chosen->credit, round_total);
    run_slice(*chosen);
    enforce_memory_budget();
    ++slices_;
    maybe_write_status();
  }
  refresh_gauges();
  if (!active_.empty() || !queue_.empty()) return true;
  return false;
}

FleetSummary Scheduler::run_to_completion() {
  while (pump()) {
  }
  FleetSummary summary;
  summary.submitted = runs_.size();
  summary.slices = slices_;
  summary.evictions = evictions_;
  for (const Record& r : runs_) {
    summary.steps_delivered += r.status.steps_done;
    switch (r.status.phase) {
      case RunPhase::kCompleted: ++summary.completed; break;
      case RunPhase::kQuarantined: ++summary.quarantined; break;
      case RunPhase::kRejected: ++summary.rejected; break;
      default: break;
    }
  }
  if (!config_.status_path.empty()) write_status_file();
  refresh_gauges();
  return summary;
}

const RunStatus& Scheduler::status(uint64_t id) const {
  if (id >= runs_.size()) {
    throw ConfigError("unknown run id: " + std::to_string(id));
  }
  return runs_[id].status;
}

std::vector<RunStatus> Scheduler::statuses() const {
  std::vector<RunStatus> out;
  out.reserve(runs_.size());
  for (const Record& r : runs_) out.push_back(r.status);
  return out;
}

std::string Scheduler::status_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"antmd.fleet.status/v1\",\n";
  os << "  \"slices\": " << slices_ << ",\n";
  os << "  \"active\": " << active_.size() << ",\n";
  os << "  \"queued\": " << queue_.size() << ",\n";
  os << "  \"resident_bytes\": " << resident_bytes() << ",\n";
  os << "  \"runs\": [\n";
  for (size_t i = 0; i < runs_.size(); ++i) {
    const RunStatus& s = runs_[i].status;
    os << "    {\"id\": " << s.id << ", \"name\": \"";
    json_escape(os, s.name);
    os << "\", \"phase\": \"" << run_phase_name(s.phase) << "\", \"engine\": \""
       << s.engine << "\", \"priority\": " << s.priority
       << ", \"steps_done\": " << s.steps_done
       << ", \"steps_target\": " << s.steps_target
       << ", \"slices\": " << s.slices << ", \"faults\": " << s.faults
       << ", \"retries\": " << s.retries << ", \"rollbacks\": " << s.rollbacks
       << ", \"restarts\": " << s.restarts
       << ", \"node_remaps\": " << s.node_remaps
       << ", \"watchdog_trips\": " << s.watchdog_trips
       << ", \"corruptions\": " << s.corruptions
       << ", \"evictions\": " << s.evictions
       << ", \"recovery_modeled_s\": " << s.recovery_modeled_s
       << ", \"resident_bytes\": " << s.resident_bytes
       << ", \"final_digest\": " << s.final_digest << ", \"detail\": \"";
    json_escape(os, s.detail);
    os << "\"";
    if (s.has_profile) {
      auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
      };
      os << ", \"profile\": {\"network_total_s\": "
         << num(s.profile_net_total_s) << ", \"classes\": {";
      for (size_t c = 0; c < obs::kMessageClassCount; ++c) {
        if (c) os << ", ";
        os << "\"" << obs::message_class_name(static_cast<obs::MessageClass>(c))
           << "\": " << num(s.profile_net_s[c]);
      }
      os << "}}";
    }
    os << "}";
    if (i + 1 < runs_.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n}\n";
  return std::move(os).str();
}

void Scheduler::write_status_file() const {
  if (config_.status_path.empty()) return;
  // write_file_durable: tmp + fsync + rename + dir fsync, with no
  // fault-injection polling — the control plane must not consume fault
  // events armed against tenants, and an operator restarting the host
  // after power loss must see the last status actually written, not a
  // file the page cache never persisted.
  try {
    io::write_file_durable(config_.status_path, status_json());
  } catch (const IoError&) {
    // status is advisory; a full disk must not stop the fleet
  }
}

void Scheduler::maybe_write_status() {
  if (config_.status_path.empty()) return;
  if (slices_ % static_cast<uint64_t>(config_.status_interval_slices) == 0) {
    write_status_file();
  }
}

void Scheduler::refresh_gauges() {
  auto& m = fleet_metrics();
  m.active_runs.set(static_cast<double>(active_.size()));
  m.queued_runs.set(static_cast<double>(queue_.size()));
  m.resident_bytes.set(static_cast<double>(resident_bytes()));
}

}  // namespace antmd::fleet
