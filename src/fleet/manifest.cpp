#include "fleet/manifest.hpp"

#include <cstdlib>
#include <sstream>

#include "io/checkpoint.hpp"
#include "util/error.hpp"

namespace antmd::fleet {

namespace {

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

uint64_t parse_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw ConfigError("manifest key '" + key + "': expected an integer, got '" +
                      value + "'");
  }
  return static_cast<uint64_t>(v);
}

int parse_int(const std::string& key, const std::string& value) {
  char* end = nullptr;
  long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw ConfigError("manifest key '" + key + "': expected an integer, got '" +
                      value + "'");
  }
  return static_cast<int>(v);
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw ConfigError("manifest key '" + key + "': expected a number, got '" +
                      value + "'");
  }
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw ConfigError("manifest key '" + key + "': expected a boolean, got '" +
                    value + "'");
}

void apply_fleet_key(SchedulerConfig& cfg, const std::string& key,
                     const std::string& value) {
  if (key == "max_active") {
    cfg.max_active_runs = parse_u64(key, value);
  } else if (key == "max_queued") {
    cfg.max_queued_runs = parse_u64(key, value);
  } else if (key == "memory_budget_mb") {
    cfg.memory_budget_bytes = parse_u64(key, value) * 1024 * 1024;
  } else if (key == "memory_budget_bytes") {
    cfg.memory_budget_bytes = parse_u64(key, value);
  } else if (key == "slice_steps") {
    cfg.slice_steps = parse_u64(key, value);
  } else if (key == "threads") {
    cfg.threads = parse_u64(key, value);
  } else if (key == "checkpoint_dir") {
    cfg.checkpoint_dir = value;
  } else if (key == "status_path") {
    cfg.status_path = value;
  } else if (key == "status_interval") {
    cfg.status_interval_slices = parse_int(key, value);
  } else if (key == "retain_final_state") {
    cfg.retain_final_state = parse_bool(key, value);
  } else {
    throw ConfigError("unknown [fleet] key: " + key);
  }
}

void apply_run_key(RunSpec& spec, const std::string& key,
                   const std::string& value) {
  if (key == "system") spec.system = value;
  else if (key == "size") spec.size = parse_u64(key, value);
  else if (key == "seed") spec.seed = parse_u64(key, value);
  else if (key == "density") spec.density = parse_double(key, value);
  else if (key == "water_model") spec.water_model = value;
  else if (key == "chain_length") spec.chain_length = parse_u64(key, value);
  else if (key == "separation") spec.separation = parse_double(key, value);
  else if (key == "engine") spec.engine = value;
  else if (key == "nodes") spec.nodes = parse_int(key, value);
  else if (key == "steps") spec.steps = parse_u64(key, value);
  else if (key == "dt_fs") spec.dt_fs = parse_double(key, value);
  else if (key == "temperature") spec.temperature_k = parse_double(key, value);
  else if (key == "thermostat") spec.thermostat = value;
  else if (key == "gamma") spec.gamma_per_ps = parse_double(key, value);
  else if (key == "cutoff") spec.cutoff = parse_double(key, value);
  else if (key == "electrostatics") spec.electrostatics = value;
  else if (key == "priority") spec.priority = parse_int(key, value);
  else if (key == "fault") spec.fault = value;
  else if (key == "max_retries") spec.max_retries = parse_int(key, value);
  else if (key == "snapshot_interval") {
    spec.snapshot_interval = parse_int(key, value);
  } else if (key == "snapshot_ring_bytes") {
    spec.snapshot_ring_bytes = parse_u64(key, value);
  } else if (key == "watchdog_ms") {
    spec.watchdog_ms = parse_double(key, value);
  } else if (key == "audit_interval") {
    spec.audit_interval = parse_int(key, value);
  } else if (key == "audit_shadow_window") {
    spec.audit_shadow_window = parse_int(key, value);
  } else if (key == "scrub_interval") {
    spec.scrub_interval = parse_int(key, value);
  } else if (key == "audit_max_recoveries") {
    spec.audit_max_recoveries = parse_int(key, value);
  } else {
    throw ConfigError("unknown run key: " + key);
  }
}

}  // namespace

Manifest parse_manifest(const std::string& text) {
  Manifest manifest;
  RunSpec defaults;
  enum class Section { kNone, kFleet, kDefaults, kRun };
  Section section = Section::kNone;
  RunSpec* current_run = nullptr;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    if (auto hash = line.find_first_of("#;"); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    try {
      if (line.front() == '[') {
        if (line.back() != ']') throw ConfigError("unterminated section");
        std::string header = trim(line.substr(1, line.size() - 2));
        if (header == "fleet") {
          section = Section::kFleet;
        } else if (header == "defaults") {
          if (!manifest.runs.empty()) {
            throw ConfigError("[defaults] must precede every [run] section");
          }
          section = Section::kDefaults;
        } else if (header.rfind("run ", 0) == 0) {
          std::string name = trim(header.substr(4));
          if (name.empty()) throw ConfigError("run section needs a name");
          manifest.runs.push_back(defaults);
          manifest.runs.back().name = name;
          current_run = &manifest.runs.back();
          section = Section::kRun;
        } else {
          throw ConfigError("unknown section [" + header + "]");
        }
        continue;
      }

      auto eq = line.find('=');
      if (eq == std::string::npos) {
        throw ConfigError("expected 'key = value'");
      }
      std::string key = trim(line.substr(0, eq));
      std::string value = trim(line.substr(eq + 1));
      if (key.empty()) throw ConfigError("empty key");
      switch (section) {
        case Section::kNone:
          throw ConfigError("key before any section header");
        case Section::kFleet:
          apply_fleet_key(manifest.scheduler, key, value);
          break;
        case Section::kDefaults:
          if (key == "name") {
            throw ConfigError("'name' is not a [defaults] key");
          }
          apply_run_key(defaults, key, value);
          break;
        case Section::kRun:
          if (key == "name") {
            throw ConfigError("run names come from the section header");
          }
          apply_run_key(*current_run, key, value);
          break;
      }
    } catch (const ConfigError& e) {
      throw ConfigError("manifest line " + std::to_string(line_no) + " ('" +
                        trim(raw) + "'): " + e.what());
    }
  }
  if (manifest.runs.empty()) {
    throw ConfigError("manifest defines no [run NAME] sections");
  }
  return manifest;
}

Manifest load_manifest(const std::string& path) {
  return parse_manifest(io::read_file(path));
}

}  // namespace antmd::fleet
