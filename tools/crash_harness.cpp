// Crash-recovery gauntlet for the persistence subsystem (the CI
// `crash-recovery` job and the nightly soak). The harness proves the
// kill-point recovery property: whatever instant a writer process dies
// at — mid-WAL-append, between a checkpoint's rename and truncate, or
// at an arbitrary torn-tail byte offset — re-opening the directory
// yields an engine whose data_version names a committed prefix of the
// deterministic batch script, and whose answers to every fixture query
// are identical to an in-memory oracle that applied exactly that
// prefix.
//
// Modes (one binary, parent re-execs itself for writer children):
//   fixture  --dir D --seed S                create fixture dir (Save)
//   writer   --dir D --seed S --batches B --checkpoint-every C
//            [--kill-at K --crash-point P --group G]
//            run the script in commit groups of G; die at K
//   verify   --dir D --seed S --batches B    reopen + diff vs oracle
//   sweep    --dir D --seed S --kills N --batches B --checkpoint-every C
//            [--artifact-dir A]              randomized kill-point sweep
//   torn     --dir D --seed S --batches B --checkpoint-every C
//            [--artifact-dir A]              torn-tail truncation sweep
//   dump     --dir D --seed S --batches B --checkpoint-every C
//            clean run leaving a snapshot + WAL tail (cross-compiler leg:
//            one toolchain dumps, the other runs `verify` on it)
//
// On any failure a repro artifact (seed + kill spec + command lines) is
// written under --artifact-dir and the process exits non-zero.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "persist/crash_point.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "workload/mutation_script.h"

namespace fs = std::filesystem;
using namespace sqopt;  // NOLINT(build/namespaces) — tool binary

namespace {

const DbSpec kSpec{"crash_harness", 40, 60};

// Crash points the sweep draws from. "exit" dies cleanly BEFORE the
// commit group containing batch K (committed prefix must be exactly
// the groups before it); the wal_* points die inside that group's
// single WAL append; group_post_wal dies between the group's append
// and its in-memory publish (recovery must replay the WHOLE group —
// the atomicity claim of the group record); the snapshot/checkpoint
// points die inside the first checkpoint at or after the group.
const std::vector<std::string> kCrashPoints = {
    "exit",
    "wal_pre_write",
    "wal_pre_sync",
    "wal_post_sync",
    "group_post_wal",
    "snapshot_pre_tmp_sync",
    "snapshot_pre_rename",
    "checkpoint_post_rename",
    "checkpoint_post_truncate",
};

struct Args {
  std::string mode;
  std::string dir;
  std::string artifact_dir = "recovery-artifacts";
  uint64_t seed = 20260729;
  int batches = 48;
  int checkpoint_every = 7;
  int kills = 16;
  int kill_at = -1;
  // Batches per explicit commit group the writer submits (ApplyGroup).
  // 1 = the historical one-Apply-per-batch script. The sweep overrides
  // this per kill to exercise the leader/follower protocol.
  int group = 1;
  std::string crash_point;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--mode" && (v = next())) {
      args.mode = v;
    } else if (flag == "--dir" && (v = next())) {
      args.dir = v;
    } else if (flag == "--artifact-dir" && (v = next())) {
      args.artifact_dir = v;
    } else if (flag == "--seed" && (v = next())) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--batches" && (v = next())) {
      args.batches = std::atoi(v);
    } else if (flag == "--checkpoint-every" && (v = next())) {
      args.checkpoint_every = std::atoi(v);
    } else if (flag == "--kills" && (v = next())) {
      args.kills = std::atoi(v);
    } else if (flag == "--kill-at" && (v = next())) {
      args.kill_at = std::atoi(v);
    } else if (flag == "--group" && (v = next())) {
      args.group = std::atoi(v);
    } else if (flag == "--crash-point" && (v = next())) {
      args.crash_point = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (args.mode.empty() || args.dir.empty()) {
    std::fprintf(stderr,
                 "usage: crash_harness --mode "
                 "fixture|writer|verify|sweep|torn|dump --dir D [...]\n");
    return std::nullopt;
  }
  return args;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "crash_harness: %s\n", msg.c_str());
  std::exit(2);
}

void WriteArtifact(const Args& args, const std::string& name,
                   const std::string& detail) {
  fs::create_directories(args.artifact_dir);
  const std::string path =
      (fs::path(args.artifact_dir) / (name + ".txt")).string();
  std::ofstream out(path);
  out << "crash_harness failure\n"
      << "mode: " << args.mode << "\nseed: " << args.seed
      << "\nbatches: " << args.batches
      << "\ncheckpoint_every: " << args.checkpoint_every << "\n"
      << detail << "\n";
  std::fprintf(stderr, "crash_harness: FAILURE — artifact at %s\n%s\n",
               path.c_str(), detail.c_str());
}

std::vector<int64_t> BaseRows(const Engine& engine) {
  std::vector<int64_t> rows;
  for (const ObjectClass& oc : engine.schema().classes()) {
    rows.push_back(engine.store()->NumObjects(oc.id));
  }
  return rows;
}

Engine MakeOracle(uint64_t seed, int committed) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  if (!opened.ok()) Die("oracle open: " + opened.status().ToString());
  Engine oracle = std::move(opened).value();
  Status loaded = oracle.Load(DataSource::Generated(kSpec, seed));
  if (!loaded.ok()) Die("oracle load: " + loaded.ToString());
  MutationScript script(&oracle.schema(), BaseRows(oracle), seed);
  for (int i = 0; i < committed; ++i) {
    auto batch = script.Next();
    if (!batch.ok()) Die("oracle script: " + batch.status().ToString());
    auto out = oracle.Apply(*batch);
    if (!out.ok()) {
      Die("oracle apply of batch " + std::to_string(i) + ": " +
          out.status().ToString());
    }
  }
  return oracle;
}

// ---------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------

int RunFixture(const Args& args) {
  auto opened = Engine::Open(SchemaSource::Experiment(),
                             ConstraintSource::Experiment());
  if (!opened.ok()) Die("open: " + opened.status().ToString());
  Engine engine = std::move(opened).value();
  Status loaded = engine.Load(DataSource::Generated(kSpec, args.seed));
  if (!loaded.ok()) Die("load: " + loaded.ToString());
  Status saved = engine.Save(args.dir);
  if (!saved.ok()) Die("save: " + saved.ToString());
  return 0;
}

int RunWriter(const Args& args) {
  auto opened = Engine::Open(args.dir);
  if (!opened.ok()) Die("writer open: " + opened.status().ToString());
  Engine engine = std::move(opened).value();
  if (engine.data_version() != 1) {
    Die("writer expects a fresh fixture (version 1), found version " +
        std::to_string(engine.data_version()));
  }
  MutationScript script(&engine.schema(), BaseRows(engine), args.seed);
  const int group = std::max(1, args.group);
  for (int g = 0; g < args.batches; g += group) {
    const int size = std::min(group, args.batches - g);
    // Arm (or die) before the GROUP containing the kill batch: the
    // group commits through one WAL append, so the wal_*/group_*
    // points fire inside that group's commit.
    if (args.kill_at >= g && args.kill_at < g + size &&
        !args.crash_point.empty()) {
      if (args.crash_point == "exit") _exit(137);
      persist::ArmCrashPoint(args.crash_point.c_str());
    }
    std::vector<MutationBatch> batches;
    batches.reserve(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      auto batch = script.Next();
      if (!batch.ok()) Die("script: " + batch.status().ToString());
      batches.push_back(std::move(*batch));
    }
    std::vector<Result<ApplyOutcome>> results = engine.ApplyGroup(batches);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        Die("apply of batch " + std::to_string(g + static_cast<int>(i)) +
            ": " + results[i].status().ToString());
      }
    }
    bool checkpoint = false;
    for (int i = g; i < g + size; ++i) {
      if (args.checkpoint_every > 0 &&
          i % args.checkpoint_every == args.checkpoint_every - 1) {
        checkpoint = true;
      }
    }
    if (checkpoint) {
      Status ck = engine.Checkpoint();
      if (!ck.ok()) Die("checkpoint: " + ck.ToString());
    }
  }
  return 0;
}

// Reopens `dir`, derives the committed prefix from data_version, and
// compares counts + every fixture query against an in-memory oracle
// that applied exactly that prefix. Returns an error description, or
// empty on success.
std::string VerifyDir(const std::string& dir, uint64_t seed,
                      int max_batches) {
  auto reopened = Engine::Open(dir);
  if (!reopened.ok()) {
    return "reopen failed: " + reopened.status().ToString();
  }
  const Engine& engine = *reopened;
  const uint64_t version = engine.data_version();
  if (version < 1 || version > 1 + static_cast<uint64_t>(max_batches)) {
    return "data_version " + std::to_string(version) +
           " names an impossible committed prefix (ran " +
           std::to_string(max_batches) + " batches)";
  }
  const int committed = static_cast<int>(version - 1);
  Engine oracle = MakeOracle(seed, committed);
  if (oracle.data_version() != version) {
    return "oracle version mismatch: " +
           std::to_string(oracle.data_version()) + " vs " +
           std::to_string(version);
  }
  for (const ObjectClass& oc : engine.schema().classes()) {
    if (engine.store()->NumLiveObjects(oc.id) !=
        oracle.store()->NumLiveObjects(oc.id)) {
      return "live count of class '" + oc.name + "' diverged at version " +
             std::to_string(version);
    }
  }
  for (const Relationship& rel : engine.schema().relationships()) {
    if (engine.store()->NumPairs(rel.id) !=
        oracle.store()->NumPairs(rel.id)) {
      return "pair count of relationship '" + rel.name +
             "' diverged at version " + std::to_string(version);
    }
  }
  for (const std::string& text : MutationScript::QueryPool()) {
    auto a = engine.Execute(text);
    auto b = oracle.Execute(text);
    if (!a.ok()) return "recovered engine failed query: " + text;
    if (!b.ok()) return "oracle failed query: " + text;
    if (!a->rows.SameDistinctRows(b->rows)) {
      return "answers diverged at version " + std::to_string(version) +
             " on: " + text;
    }
  }
  return "";
}

// Spawns this binary as `--mode writer` on `dir` and waits. Returns
// the child's exit status (137 = simulated crash), or -1 on spawn
// failure.
int SpawnWriter(const Args& args, const std::string& dir, int kill_at,
                const std::string& crash_point, int group) {
  char self[4096];
  ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) Die("cannot resolve /proc/self/exe");
  self[n] = '\0';

  std::vector<std::string> argv_s = {
      self,         "--mode",    "writer",
      "--dir",      dir,         "--seed",
      std::to_string(args.seed), "--batches",
      std::to_string(args.batches), "--checkpoint-every",
      std::to_string(args.checkpoint_every), "--group",
      std::to_string(group)};
  if (kill_at >= 0) {
    argv_s.push_back("--kill-at");
    argv_s.push_back(std::to_string(kill_at));
    argv_s.push_back("--crash-point");
    argv_s.push_back(crash_point);
  }
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::execv(self, argv.data());
    _exit(127);  // exec failed
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

int RunSweep(const Args& args) {
  const fs::path root = args.dir;
  const fs::path fixture = root / "fixture";
  fs::remove_all(root);
  Args fixture_args = args;
  fixture_args.dir = fixture.string();
  RunFixture(fixture_args);

  Rng rng(args.seed ^ 0xC4A54);
  int failures = 0;
  for (int k = 0; k < args.kills; ++k) {
    const int kill_at = static_cast<int>(
        rng.Index(static_cast<size_t>(args.batches)));
    const std::string& point = kCrashPoints[rng.Index(kCrashPoints.size())];
    // Vary the commit-group size so the sweep exercises the group WAL
    // record: a kill between a group's single append and its publish
    // must recover the whole group or none of it.
    const int group = 1 << rng.Index(3);  // 1, 2, or 4
    const fs::path run = root / "run";
    CopyDir(fixture, run);

    const int status = SpawnWriter(args, run.string(), kill_at, point, group);
    std::string error;
    if (status != 0 && status != 137) {
      error = "writer exited with unexpected status " +
              std::to_string(status);
    } else {
      error = VerifyDir(run.string(), args.seed, args.batches);
    }
    // Exact committed-prefix expectations where the kill point pins
    // them (fsync'd appends survive a process kill deterministically).
    // With grouping, the writer dies around the COMMIT GROUP covering
    // kill_at: before the durable append the prefix is the groups
    // before it; once the group record hits the WAL (the page cache
    // survives a process kill) recovery replays the whole group, never
    // part of it.
    const bool pre_durable = point == "exit" || point == "wal_pre_write";
    const bool post_durable = point == "wal_pre_sync" ||
                              point == "wal_post_sync" ||
                              point == "group_post_wal";
    if (error.empty() && (pre_durable || post_durable) && status == 137) {
      auto reopened = Engine::Open(run.string());
      const uint64_t version = reopened.ok() ? reopened->data_version() : 0;
      const int gstart = kill_at - (kill_at % group);
      const int gsize = std::min(group, args.batches - gstart);
      const uint64_t expected =
          pre_durable ? 1 + static_cast<uint64_t>(gstart)
                      : 1 + static_cast<uint64_t>(gstart + gsize);
      if (version != expected) {
        error = "committed prefix mismatch: kill '" + point +
                "' at batch " + std::to_string(kill_at) + " (group " +
                std::to_string(group) + ") => version " +
                std::to_string(version) + ", expected " +
                std::to_string(expected);
      }
    }
    if (!error.empty()) {
      WriteArtifact(
          args, "sweep_kill" + std::to_string(k),
          "kill_at: " + std::to_string(kill_at) + "\ncrash_point: " +
              point + "\ngroup: " + std::to_string(group) +
              "\nwriter_status: " + std::to_string(status) +
              "\nerror: " + error +
              "\nrepro: crash_harness --mode sweep --dir <tmp> --seed " +
              std::to_string(args.seed) + " --kills " +
              std::to_string(args.kills) + " --batches " +
              std::to_string(args.batches) + " --checkpoint-every " +
              std::to_string(args.checkpoint_every));
      ++failures;
    } else {
      std::printf(
          "kill %3d/%d: batch %3d group %d point %-24s status %3d  ok\n",
          k + 1, args.kills, kill_at, group, point.c_str(), status);
    }
  }
  std::printf("sweep: %d/%d kill points recovered correctly\n",
              args.kills - failures, args.kills);
  return failures == 0 ? 0 : 1;
}

int RunTorn(const Args& args) {
  const fs::path root = args.dir;
  const fs::path fixture = root / "fixture";
  const fs::path full = root / "full";
  fs::remove_all(root);
  Args fixture_args = args;
  fixture_args.dir = fixture.string();
  RunFixture(fixture_args);
  CopyDir(fixture, full);
  // A clean run whose WAL keeps a tail: pick a checkpoint interval
  // that does not divide the batch count.
  if (SpawnWriter(args, full.string(), -1, "", std::max(1, args.group)) !=
      0) {
    Die("torn-sweep writer failed");
  }

  const fs::path wal = full / persist::kWalFileName;
  const int64_t size = static_cast<int64_t>(fs::file_size(wal));
  const int64_t header = static_cast<int64_t>(persist::kWalHeaderBytes);
  // Every truncation offset in the last ~2KiB plus a stride through
  // the rest: each must recover to SOME committed prefix.
  std::vector<int64_t> offsets;
  for (int64_t off = header; off < size;
       off += (size - off > 2048 ? 97 : 1)) {
    offsets.push_back(off);
  }
  int failures = 0;
  for (size_t i = 0; i < offsets.size(); ++i) {
    const fs::path run = root / "run";
    CopyDir(full, run);
    fs::resize_file(run / persist::kWalFileName,
                    static_cast<uintmax_t>(offsets[i]));
    std::string error = VerifyDir(run.string(), args.seed, args.batches);
    if (!error.empty()) {
      WriteArtifact(args, "torn_off" + std::to_string(offsets[i]),
                    "truncate_offset: " + std::to_string(offsets[i]) +
                        "\nerror: " + error);
      ++failures;
    }
  }
  std::printf("torn sweep: %zu/%zu truncation offsets recovered correctly\n",
              offsets.size() - failures, offsets.size());
  return failures == 0 ? 0 : 1;
}

int RunDump(const Args& args) {
  fs::remove_all(args.dir);
  Args fixture_args = args;
  RunFixture(fixture_args);
  Args writer_args = args;
  writer_args.kill_at = -1;
  writer_args.crash_point.clear();
  return RunWriter(writer_args);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.has_value()) return 2;
  if (args->mode == "fixture") return RunFixture(*args);
  if (args->mode == "writer") return RunWriter(*args);
  if (args->mode == "dump") return RunDump(*args);
  if (args->mode == "verify") {
    std::string error = VerifyDir(args->dir, args->seed, args->batches);
    if (!error.empty()) {
      WriteArtifact(*args, "verify", "error: " + error);
      return 1;
    }
    std::printf("verify: ok\n");
    return 0;
  }
  if (args->mode == "sweep") return RunSweep(*args);
  if (args->mode == "torn") return RunTorn(*args);
  std::fprintf(stderr, "unknown mode '%s'\n", args->mode.c_str());
  return 2;
}
