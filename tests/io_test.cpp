// Tests for trajectory/CSV output and bit-exact checkpoint round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/checkpoint.hpp"
#include "io/config.hpp"
#include "io/trajectory.hpp"
#include "math/rng.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::io {
namespace {

std::string temp_path(const std::string& name) {
  return std::string("/tmp/antmd_io_test_") + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Xyz, WritesFramesWithHeaders) {
  auto spec = build_lj_fluid(27, 0.021, 1);
  State state;
  state.positions = spec.positions;
  state.velocities.assign(27, Vec3{});
  state.box = spec.box;
  state.step = 42;

  std::string path = temp_path("frame.xyz");
  {
    XyzWriter writer(path, spec.topology);
    writer.write_frame(state);
    state.step = 43;
    writer.write_frame(state);
    EXPECT_EQ(writer.frames_written(), 2u);
  }
  std::string content = slurp(path);
  EXPECT_NE(content.find("27\n"), std::string::npos);
  EXPECT_NE(content.find("step=42"), std::string::npos);
  EXPECT_NE(content.find("step=43"), std::string::npos);
  EXPECT_NE(content.find("AR "), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, HeaderAndRows) {
  std::string path = temp_path("data.csv");
  {
    CsvWriter writer(path, {"step", "energy", "temp"});
    writer.write_row(std::vector<double>{1, -503.25, 298.7});
    writer.write_row(std::vector<double>{2, -504.75, 301.2});
  }
  std::string content = slurp(path);
  EXPECT_NE(content.find("step,energy,temp"), std::string::npos);
  EXPECT_NE(content.find("-503.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RowWidthEnforced) {
  std::string path = temp_path("bad.csv");
  CsvWriter writer(path, {"a", "b"});
  EXPECT_THROW(writer.write_row(std::vector<double>{1.0}), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, BitExactRoundTrip) {
  SequentialRng rng(3);
  State state;
  state.box = Box(12.5, 17.25, 9.75);
  state.time = 123.456789;
  state.step = 987654321;
  for (int i = 0; i < 100; ++i) {
    state.positions.push_back(Vec3{rng.uniform(-50, 50),
                                   rng.uniform(-50, 50),
                                   rng.uniform(-50, 50)});
    state.velocities.push_back(Vec3{rng.gaussian(), rng.gaussian(),
                                    rng.gaussian()});
  }

  std::string path = temp_path("ckpt.bin");
  save_checkpoint(path, state);
  State loaded = load_checkpoint(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.step, state.step);
  EXPECT_EQ(loaded.time, state.time);
  EXPECT_EQ(loaded.box.edges(), state.box.edges());
  ASSERT_EQ(loaded.positions.size(), state.positions.size());
  for (size_t i = 0; i < state.positions.size(); ++i) {
    EXPECT_EQ(loaded.positions[i], state.positions[i]);
    EXPECT_EQ(loaded.velocities[i], state.velocities[i]);
  }
}

TEST(Checkpoint, RejectsGarbageFile) {
  std::string path = temp_path("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_THROW(load_checkpoint(path), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(load_checkpoint("/nonexistent/path/x.bin"), IoError);
}

TEST(Checkpoint, TruncatedFileThrows) {
  State state;
  state.box = Box(10, 10, 10);
  state.positions.assign(8, Vec3{1, 2, 3});
  state.velocities.assign(8, Vec3{});

  std::string path = temp_path("truncated.bin");
  save_checkpoint(path, state);
  std::string full = slurp(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(path), IoError);
  std::remove(path.c_str());
}

TEST(Xyz, UnwritablePathThrowsIoError) {
  auto spec = build_lj_fluid(8, 0.021, 1);
  EXPECT_THROW(XyzWriter("/nonexistent/dir/frames.xyz", spec.topology),
               IoError);
}

TEST(Csv, UnwritablePathThrowsIoError) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/data.csv", {"a", "b"}), IoError);
}

TEST(Xyz, TornWriteIsDetectedAndTruncatedToLastGoodFrame) {
  auto spec = build_lj_fluid(27, 0.021, 1);
  State state;
  state.positions = spec.positions;
  state.velocities.assign(27, Vec3{});
  state.box = spec.box;
  state.step = 1;

  std::string path = temp_path("torn.xyz");
  {
    XyzWriter writer(path, spec.topology);
    writer.write_frame(state);
    state.step = 2;
    writer.write_frame(state);
    // Third frame tears mid-write: only half of it reaches the disk.
    fault::ScopedFault torn(
        {.kind = fault::FaultKind::kIoShortWrite, .fire_after = 0});
    state.step = 3;
    writer.write_frame(state);
  }
  const std::string before = slurp(path);
  EXPECT_NE(before.find("step=3"), std::string::npos);  // partial tail exists

  XyzRepair repair = repair_xyz(path);
  EXPECT_TRUE(repair.truncated());
  EXPECT_EQ(repair.frames_kept, 2u);
  EXPECT_GT(repair.bytes_removed, 0u);

  const std::string after = slurp(path);
  EXPECT_NE(after.find("step=2"), std::string::npos);
  EXPECT_EQ(after.find("step=3"), std::string::npos);  // tail gone
  EXPECT_LT(after.size(), before.size());

  // Repairing an already-clean file is a no-op.
  XyzRepair again = repair_xyz(path);
  EXPECT_FALSE(again.truncated());
  EXPECT_EQ(again.frames_kept, 2u);

  // A resumed run appends frame 3 after the repair point.
  {
    XyzWriter writer(path, spec.topology, /*append=*/true);
    state.step = 3;
    writer.write_frame(state);
  }
  XyzRepair resumed = repair_xyz(path);
  EXPECT_FALSE(resumed.truncated());
  EXPECT_EQ(resumed.frames_kept, 3u);
  std::remove(path.c_str());
}

TEST(Xyz, RepairMissingFileThrows) {
  EXPECT_THROW(repair_xyz("/nonexistent/dir/traj.xyz"), IoError);
}

TEST(CheckpointBackup, LoadFallsBackToBakWhenPrimaryCorrupt) {
  struct Blob : util::Checkpointable {
    uint64_t value = 0;
    void save_checkpoint(util::BinaryWriter& w) const override {
      w.write_u64(value);
    }
    void restore_checkpoint(util::BinaryReader& r) override {
      value = r.read_u64();
    }
  };

  std::string path = temp_path("backup.ckpt");
  Blob blob;
  blob.value = 41;
  save_checkpoint_v2(path, {{"sim", &blob}});
  rotate_backup(path);  // generation 41 now lives in the .bak mirror
  blob.value = 42;
  save_checkpoint_v2(path, {{"sim", &blob}});

  // Healthy primary wins.
  Blob loaded;
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}}), path);
  EXPECT_EQ(loaded.value, 42u);

  // Corrupt the primary (CRC mismatch): the .bak generation is restored.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\xff');
  }
  EXPECT_THROW(load_checkpoint_v2(path, {{"sim", &loaded}}), IoError);
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}}),
            backup_path(path));
  EXPECT_EQ(loaded.value, 41u);

  // Both generations corrupt -> IoError naming both failures.
  {
    std::ofstream f(backup_path(path), std::ios::trunc);
    f << "junk";
  }
  EXPECT_THROW(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}}),
               IoError);
  std::remove(path.c_str());
  std::remove(backup_path(path).c_str());
}

// A checkpoint write that fails mid-rotation must never shadow a good
// backup with a truncated one: rotate_backup verifies the candidate's CRC
// before promoting it, deletes a torn primary outright, and replaces the
// .bak only via temp file + atomic rename.
TEST(CheckpointBackup, TornPrimaryNeverShadowsGoodBackup) {
  struct Blob : util::Checkpointable {
    uint64_t value = 0;
    void save_checkpoint(util::BinaryWriter& w) const override {
      w.write_u64(value);
    }
    void restore_checkpoint(util::BinaryReader& r) override {
      value = r.read_u64();
    }
  };

  std::string path = temp_path("torn_rotation.ckpt");
  std::remove(path.c_str());
  std::remove(backup_path(path).c_str());

  Blob blob;
  blob.value = 7;
  save_checkpoint_v2(path, {{"sim", &blob}});
  rotate_backup(path);  // generation 7 is now the .bak mirror
  ASSERT_EQ(std::ifstream(path).good(), false) << "rotation keeps primary";

  // A crash leaves a torn primary: rotating it again must not replace the
  // good .bak, and must remove the torn file so it cannot be restored.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "torn-checkpoint-garbage";
  }
  rotate_backup(path);
  EXPECT_FALSE(std::ifstream(path).good()) << "torn primary was deleted";
  Blob loaded;
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}}),
            backup_path(path));
  EXPECT_EQ(loaded.value, 7u);

  // A healthy newer primary still replaces the .bak generation.
  blob.value = 8;
  save_checkpoint_v2(path, {{"sim", &blob}});
  rotate_backup(path);
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}}),
            backup_path(path));
  EXPECT_EQ(loaded.value, 8u);

  // Rotating a missing primary is a no-op that keeps the backup.
  rotate_backup(path);
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}}),
            backup_path(path));
  EXPECT_EQ(loaded.value, 8u);

  std::remove(path.c_str());
  std::remove(backup_path(path).c_str());
}

// Durable control-plane writes: write_file_durable follows the same temp
// file + rename protocol as write_file_atomic (and additionally fsyncs),
// but never consumes fault-injection events — fleet status files must not
// eat a tenant's scheduled I/O faults.
TEST(DurableWrite, SkipsFaultInjectionAndReplacesAtomically) {
  std::string path = temp_path("durable.json");
  write_file_durable(path, "generation-1");
  EXPECT_EQ(read_file(path), "generation-1");

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kIoWriteFail;
  plan.count = -1;
  fault::ScopedFault f(plan);

  // An armed write-failure plan neither fires nor advances: the durable
  // writer is invisible to the chaos schedule.
  const uint64_t events = fault::event_count(fault::FaultKind::kIoWriteFail);
  write_file_durable(path, "generation-2");
  EXPECT_EQ(read_file(path), "generation-2");
  EXPECT_EQ(fault::fired_count(fault::FaultKind::kIoWriteFail), 0u);
  EXPECT_EQ(fault::event_count(fault::FaultKind::kIoWriteFail), events);

  // The same plan still fires for the fault-polled atomic writer, and the
  // durable generation survives the failed replacement.
  EXPECT_THROW(write_file_atomic(path, "generation-3"), IoError);
  EXPECT_EQ(read_file(path), "generation-2");
  std::remove(path.c_str());
}

// Satellite of the SDC work: when rotation rejects a corrupt primary, the
// caller learns *why* — the reason string feeds the supervisor's event log
// so "restored from backup" never hides the evidence.
TEST(CheckpointBackup, RotationAndFallbackReportWhyPrimaryWasRejected) {
  struct Blob : util::Checkpointable {
    uint64_t value = 0;
    void save_checkpoint(util::BinaryWriter& w) const override {
      w.write_u64(value);
    }
    void restore_checkpoint(util::BinaryReader& r) override {
      value = r.read_u64();
    }
  };

  std::string path = temp_path("rotation_reason.ckpt");
  std::remove(path.c_str());
  std::remove(backup_path(path).c_str());

  Blob blob;
  blob.value = 11;
  save_checkpoint_v2(path, {{"sim", &blob}});
  // A healthy rotation has nothing to report.
  EXPECT_EQ(rotate_backup(path), "");

  // A torn primary is rejected at rotation; the reason names the failure.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "torn-checkpoint-garbage";
  }
  std::string reason = rotate_backup(path);
  EXPECT_FALSE(reason.empty());
  EXPECT_FALSE(std::ifstream(path).good()) << "torn primary was deleted";

  // Fallback load surfaces the primary's verification failure through the
  // out-param, so the restart event can say what was wrong with it.
  blob.value = 12;
  save_checkpoint_v2(path, {{"sim", &blob}});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\xff');
  }
  Blob loaded;
  std::string primary_error;
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}},
                                         &primary_error),
            backup_path(path));
  EXPECT_EQ(loaded.value, 11u);
  EXPECT_FALSE(primary_error.empty());

  // A healthy primary leaves the out-param empty.
  save_checkpoint_v2(path, {{"sim", &blob}});
  primary_error = "stale";
  EXPECT_EQ(load_checkpoint_v2_or_backup(path, {{"sim", &loaded}},
                                         &primary_error),
            path);
  EXPECT_EQ(primary_error, "");

  std::remove(path.c_str());
  std::remove(backup_path(path).c_str());
}

// RunConfig records which keys its getters read, so a driver can reject
// keys it never looked at (misspellings, retired options) instead of
// silently running without them.
TEST(RunConfigUnread, ListsEveryKeyNoGetterRead) {
  auto cfg = RunConfig::from_string(
      "steps = 10\nnonbonded_kernl = pair\nclusterwidth = 4\n"
      "xyz = out.xyz\ntemperatur = 300\n");
  EXPECT_EQ(cfg.get_int("steps", 1), 10);
  EXPECT_TRUE(cfg.has("xyz"));
  // Reading an absent key (a default) marks nothing present as read.
  EXPECT_EQ(cfg.get_string("engine", "host"), "host");
  try {
    cfg.require_all_read();
    FAIL() << "unread keys must be a ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown or unused config key(s): clusterwidth "
              "nonbonded_kernl temperatur");
  }
}

TEST(RunConfigUnread, EveryGetterCountsAsARead) {
  auto cfg = RunConfig::from_string(
      "a = x\nb = 1.5\nc = 2\nd = true\ne = y\nf = z\n");
  (void)cfg.get_string("a", "");
  (void)cfg.get_double("b", 0.0);
  (void)cfg.get_int("c", 0);
  (void)cfg.get_bool("d", false);
  (void)cfg.require_string("e");
  EXPECT_THROW(cfg.require_all_read(), ConfigError);  // f is still unread
  EXPECT_TRUE(cfg.has("f"));
  EXPECT_NO_THROW(cfg.require_all_read());
}

}  // namespace
}  // namespace antmd::io
