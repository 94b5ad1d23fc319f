#include "resilience/supervisor.hpp"

#include <sstream>

namespace antmd::resilience {

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNumerical:
      return "numerical";
    case FailureKind::kIo:
      return "io";
    case FailureKind::kNodeFailure:
      return "node-failure";
    case FailureKind::kWatchdog:
      return "watchdog";
    case FailureKind::kSilentCorruption:
      return "silent-corruption";
    case FailureKind::kNone:
      return "none";
  }
  return "unknown";
}

const char* recovery_action_name(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kRetry:
      return "retry";
    case RecoveryAction::kRollback:
      return "rollback";
    case RecoveryAction::kRestart:
      return "restart";
    case RecoveryAction::kDegrade:
      return "degrade";
    case RecoveryAction::kEscalate:
      return "escalate";
  }
  return "unknown";
}

std::string RecoveryReport::render() const {
  std::ostringstream os;
  os << "recovery report: "
     << (completed ? "run completed" : "run abandoned") << "\n"
     << "  steps delivered:    " << steps_delivered << "\n"
     << "  faults detected:    " << faults_detected << "\n"
     << "  retries:            " << retries << "\n"
     << "  rollbacks:          " << rollbacks << "\n"
     << "  restarts:           " << restarts << "\n"
     << "  node remaps:        " << node_remaps << "\n"
     << "  watchdog trips:     " << watchdog_trips << "\n"
     << "  corruptions:        " << corruptions << "\n"
     << "  snapshots:          " << snapshots << "\n"
     << "  recovery modeled s: " << recovery_modeled_s << "\n";
  if (!final_error.empty()) {
    os << "  final error:        " << final_error << "\n";
  }
  if (!events.empty()) {
    os << "  events:\n";
    for (const RecoveryEvent& e : events) {
      os << "    step " << e.step << " [" << failure_kind_name(e.kind) << " -> "
         << recovery_action_name(e.action) << "]";
      if (e.backoff_s > 0) os << " backoff=" << e.backoff_s << "s";
      os << " " << e.detail << "\n";
    }
  }
  return std::move(os).str();
}

void write_recovery_report(const std::string& path,
                           const RecoveryReport& report) {
  io::write_file_atomic(path, report.render());
}

namespace detail {

SupervisorMetrics& supervisor_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static SupervisorMetrics m{
      reg.counter("resilience.supervisor.fault.count"),
      reg.counter("resilience.supervisor.retry.count"),
      reg.counter("resilience.supervisor.rollback.count"),
      reg.counter("resilience.supervisor.restart.count"),
      reg.counter("resilience.supervisor.remap.count"),
      reg.counter("resilience.supervisor.watchdog.count"),
      reg.counter("resilience.supervisor.escalation.count"),
      reg.counter("resilience.supervisor.mirror_degrade.count"),
      reg.gauge("resilience.supervisor.recovery_modeled_seconds"),
      reg.gauge("resilience.supervisor.snapshot_bytes"),
      reg.counter("resilience.health.check.count"),
      reg.counter("resilience.health.violation.count")};
  return m;
}

}  // namespace detail

void SnapshotRing::push(uint64_t step, std::string blob) {
  if (!entries_.empty() && entries_.back().first == step) {
    bytes_ -= entries_.back().second.size();
    bytes_ += blob.size();
    entries_.back().second = std::move(blob);  // refresh in place
  } else {
    bytes_ += blob.size();
    entries_.emplace_back(step, std::move(blob));
  }
  // Depth cap, then byte budget; the newest entry always survives so a
  // rollback target exists even when one snapshot exceeds the budget.
  while (entries_.size() > depth_ ||
         (max_bytes_ > 0 && bytes_ > max_bytes_ && entries_.size() > 1)) {
    bytes_ -= entries_.front().second.size();
    entries_.pop_front();
  }
}

uint64_t SnapshotRing::newest_step() const {
  if (entries_.empty()) {
    throw Error("snapshot ring is empty");
  }
  return entries_.back().first;
}

const std::string& SnapshotRing::newest_blob() const {
  if (entries_.empty()) {
    throw Error("snapshot ring is empty");
  }
  return entries_.back().second;
}

}  // namespace antmd::resilience
