// Lifecycle benchmark: runs UCAD's offline and online stages end to end on
// one generated deployment and prints one JSON result line.
//
//   lifecycle_bench --workload commenting|location --seed N --seconds S
//                   --trace 0|1 [--out DIR]
//
// The run starts copies of itself as set-up probes (--probe-model ...), each
// timing one cold set-up from its own process start; see SetupProbe.
//
// Phases (each calls the layers through their public functions):
//   train   training-log text -> ReadSessionLog -> PrepareTrainingData ->
//           TransDasTrainer::Train -> SaveModelToFile
//   screen  screening-log text -> ReadSessionLog -> TokenizeSessionFrozen ->
//           DetectSession -> one AuditLog::Append per scored op -> Close
//   triage  ExplainOperation(.., 3) + AttributeOperation(.., 3) per flagged op
//   stream  ops of a sample of screening sessions interleaved by timestamp,
//           one at a time: ParseStatement -> Vocabulary::Lookup ->
//           ScoreNextOperation
// Screen, triage and stream interleave over --seconds with replayed
// training epochs, and every timing is read from the fastest repetition of
// a fixed piece of work (see Run::Report).
// Every run then checks the outputs against independent computations (the
// autograd tape, the generator's ground truth, the files read back) and
// self-tests those checks on corrupted inputs. See README.md.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ucad.h"
#include "nn/infer.h"
#include "nn/tape.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "prep/access_control.h"
#include "prep/preprocessor.h"
#include "sql/log_reader.h"
#include "sql/session.h"
#include "sql/statement.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "transdas/serialization.h"
#include "transdas/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/anomaly.h"
#include "workload/commenting.h"
#include "workload/location.h"

extern char** environ;

namespace {

using namespace ucad;
using Clock = std::chrono::steady_clock;

// Initialized during static initialization, before main. In a set-up probe
// process it starts the cold set-up that setup_s measures.
const Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  workload::ScenarioSpec spec;
  int normal_sessions = 0;  // split 8:2 into training log and V1
  int noisy_sessions = 0;   // policy-violating sessions in the training log
  transdas::TransDasConfig model;
  transdas::TrainOptions training;
  int top_p = 0;
  int lanes = 1;
};

bool MakeWorkload(const std::string& name, Workload* w) {
  w->name = name;
  w->training.margin = 0.5f;
  w->training.learning_rate = 3e-3f;
  if (name == "commenting") {
    // Scenario-I generator and the paper's Scenario-I model, one lane.
    w->spec = workload::MakeCommentingScenario();
    w->normal_sessions = 440;
    w->noisy_sessions = 40;
    w->model.window = 30;
    w->model.hidden_dim = 10;
    w->model.num_heads = 2;
    w->model.num_blocks = 6;
    w->training.window_stride = 8;
    w->training.negative_samples = 4;
    w->training.epochs = 120;
    w->top_p = 6;
    w->lanes = 1;
    return true;
  }
  if (name == "location") {
    // Scenario-II generator at repro density and the repro model.
    workload::LocationOptions wl;
    wl.select_variants = 8;
    wl.insert_variants = 10;
    wl.picn_insert_variants = 4;
    wl.update_variants = 12;
    wl.min_tasks = 4;
    wl.max_tasks = 7;
    w->spec = workload::MakeLocationScenario(wl);
    w->normal_sessions = 500;
    w->noisy_sessions = 40;
    w->model.window = 50;
    w->model.hidden_dim = 32;
    w->model.num_heads = 4;
    w->model.num_blocks = 3;
    w->training.window_stride = 25;
    w->training.negative_samples = 8;
    w->training.epochs = 16;
    w->top_p = 10;
    const unsigned hw = std::thread::hardware_concurrency();
    w->lanes = static_cast<int>(std::min(4u, std::max(1u, hw)));
    return true;
  }
  return false;
}

/// Generated inputs of one run, all drawn from the run's seed.
struct Inputs {
  std::vector<sql::RawSession> train_log;
  std::vector<bool> train_noisy;  // parallel to train_log
  std::vector<sql::RawSession> screen;  // V1, V2, V3, A1, A2, A3 in order
};

Inputs GenerateInputs(const Workload& w, uint64_t seed) {
  util::Rng rng(seed);
  workload::SessionGenerator generator(w.spec);
  workload::AnomalySynthesizer synthesizer(&generator);
  std::vector<sql::RawSession> normal =
      generator.GenerateNormalBatch(w.normal_sessions, &rng);
  const size_t train_count = normal.size() * 8 / 10;
  std::vector<std::pair<sql::RawSession, bool>> train;
  for (size_t i = 0; i < train_count; ++i) train.emplace_back(normal[i], false);
  for (int i = 0; i < w.noisy_sessions; ++i) {
    train.emplace_back(
        generator.GenerateNoisy(static_cast<workload::NoiseKind>(i % 4), &rng),
        true);
  }
  rng.Shuffle(&train);
  Inputs in;
  for (auto& [session, noisy] : train) {
    in.train_log.push_back(std::move(session));
    in.train_noisy.push_back(noisy);
  }
  std::vector<sql::RawSession> v1(normal.begin() + train_count, normal.end());
  std::vector<sql::RawSession> sets[6];
  double avg_len = 0.0;
  for (const sql::RawSession& raw : v1) {
    sets[0].push_back(raw);
    sets[1].push_back(synthesizer.PartialSwap(raw, &rng));
    sets[2].push_back(synthesizer.PartialRemove(raw, &rng));
    sets[3].push_back(synthesizer.PrivilegeAbuse(raw, &rng));
    sets[4].push_back(synthesizer.CredentialStealing(raw, &rng));
    avg_len += static_cast<double>(raw.operations.size());
  }
  avg_len /= std::max<size_t>(1, v1.size());
  for (size_t i = 0; i < v1.size(); ++i) {
    sets[5].push_back(
        synthesizer.Misoperation(static_cast<int>(avg_len), &rng));
  }
  for (auto& set : sets) {
    for (auto& s : set) in.screen.push_back(std::move(s));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each call into a layer.

enum SpanName : uint16_t {
  kPhaseTrain,
  kRoundScreen,
  kRoundTriage,
  kRoundStream,
  kReadLog,
  kPurify,
  kTrainFit,
  kSaveModel,
  kTokenize,
  kDetect,
  kAppend,
  kDrain,
  kExplain,
  kAttribute,
  kParse,
  kLookup,
  kScoreNext,
  kSpanNameCount,
};

struct SpanInfo {
  const char* name;
  const char* layer;
};

constexpr SpanInfo kSpanInfo[kSpanNameCount] = {
    {"phase/train", "bench"},
    {"round/screen", "bench"},
    {"round/triage", "bench"},
    {"round/stream", "bench"},
    {"sql/ReadSessionLog", "sql"},
    {"prep/PrepareTrainingData", "prep"},
    {"trainer/Train", "trainer"},
    {"serialization/SaveModelToFile", "serialization"},
    {"sql/TokenizeSessionFrozen", "sql"},
    {"detector/DetectSession", "detector"},
    {"audit/Append", "audit"},
    {"audit/FlushClose", "audit"},
    {"explain/ExplainOperation", "explain"},
    {"explain/AttributeOperation", "explain"},
    {"sql/ParseStatement", "sql"},
    {"sql/Vocabulary::Lookup", "sql"},
    {"detector/ScoreNextOperation", "detector"},
};

const char* const kLayers[] = {"sql",   "prep",    "trainer", "serialization",
                               "detector", "explain", "audit", "bench"};

struct Span {
  uint16_t name;
  int32_t parent;
  int32_t session;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder for the calling thread. When off, Begin returns
/// an empty scope and records nothing.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, int32_t idx) : t_(t), idx_(idx) {}
    ~Scope() {
      if (t_ == nullptr) return;
      Span& s = t_->spans_[static_cast<size_t>(idx_)];
      s.end_ns = NowNs();
      t_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int32_t idx_;
  };

  void set_on(bool on) { on_ = on; }

  Scope Begin(SpanName name, int32_t session = -1) {
    if (!on_) return Scope(nullptr, -1);
    const int32_t idx = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, open_, session, NowNs(), 0});
    open_ = idx;
    return Scope(this, idx);
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  bool on_ = false;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

Tracer g_tracer;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Checks. Each returns the failures it found (empty = pass), so the
// self-test can feed them corrupted inputs and require a failure.

using Failures = std::vector<std::string>;

void Fail(Failures* f, const std::string& what) {
  if (f->size() < 20) f->push_back(what);
}

/// Rank by the benchmark's own count: 1 + number of keys (k >= 1, k != key)
/// with a strictly larger logit; unknown keys get vocab + 1.
int OwnRank(const float* row, int vocab, int key) {
  if (key <= 0 || key >= vocab) return vocab + 1;
  int rank = 1;
  for (int k = 1; k < vocab; ++k) {
    if (k != key && row[k] > row[key]) ++rank;
  }
  return rank;
}

int SanitizeKey(int key, int vocab) {
  return key >= 0 && key < vocab ? key : 0;
}

/// Tape-engine logits ([L x vocab]) for one window.
nn::Tensor TapeLogits(transdas::TransDasModel* model,
                      const std::vector<int>& window) {
  nn::Tape tape;
  const nn::VarId out =
      model->Forward(&tape, window, /*training=*/false, nullptr);
  const nn::VarId logits = model->AllKeyLogits(&tape, out);
  return tape.value(logits);
}

/// (a) Screening verdicts of one session recomputed through the autograd
/// tape with the benchmark's own window placement: L-wide spans starting at
/// position 1, the tail window clamped inside the session.
void CheckScreenVerdictsByTape(transdas::TransDasModel* model, int top_p,
                               const std::vector<int>& keys,
                               const transdas::SessionVerdict& verdict,
                               const std::string& tag, Failures* f) {
  const int L = model->config().window;
  const int vocab = model->config().vocab_size;
  const int n = static_cast<int>(keys.size());
  if (n < 2) {
    if (!verdict.operations.empty()) Fail(f, tag + ": verdicts for <2 ops");
    return;
  }
  if (static_cast<int>(verdict.operations.size()) != n - 1) {
    Fail(f, tag + ": verdict count " +
                std::to_string(verdict.operations.size()) + " != " +
                std::to_string(n - 1));
    return;
  }
  for (int lo = 1; lo < n;) {
    const int hi = std::min(lo + L - 1, n - 1);  // last position scored
    // Output row i predicts the key at position hi - L + 1 + i from the
    // window of keys [hi - L, hi - 1] (k0 before the session start).
    std::vector<int> window(L, 0);
    for (int i = 0; i < L; ++i) {
      const int p = hi - L + i;
      if (p >= 0) window[i] = SanitizeKey(keys[p], vocab);
    }
    const nn::Tensor logits = TapeLogits(model, window);
    for (int pos = lo; pos <= hi; ++pos) {
      const int row = pos - (hi - L + 1);
      const int rank = OwnRank(logits.row(row), vocab, keys[pos]);
      const transdas::OperationVerdict& op = verdict.operations[pos - 1];
      if (op.position != pos || op.rank != rank ||
          op.abnormal != (rank > top_p)) {
        Fail(f, tag + " pos " + std::to_string(pos) + ": detector rank " +
                    std::to_string(op.rank) + (op.abnormal ? "/abn" : "/ok") +
                    " vs tape rank " + std::to_string(rank));
      }
    }
    lo = hi + 1;
  }
}

/// (a) One streamed verdict recomputed through the tape from the
/// right-aligned preceding L keys.
void CheckStreamVerdictByTape(transdas::TransDasModel* model, int top_p,
                              const std::vector<int>& preceding, int key,
                              const transdas::OperationVerdict& v,
                              const std::string& tag, Failures* f) {
  const int L = model->config().window;
  const int vocab = model->config().vocab_size;
  std::vector<int> window(L, 0);
  const int take = std::min<int>(L, static_cast<int>(preceding.size()));
  for (int i = 0; i < take; ++i) {
    window[L - take + i] =
        SanitizeKey(preceding[preceding.size() - take + i], vocab);
  }
  const nn::Tensor logits = TapeLogits(model, window);
  const int rank = OwnRank(logits.row(L - 1), vocab, key);
  if (v.rank != rank || v.abnormal != (rank > top_p)) {
    Fail(f, tag + ": detector rank " + std::to_string(v.rank) +
                (v.abnormal ? "/abn" : "/ok") + " vs tape rank " +
                std::to_string(rank));
  }
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameVerdict(const transdas::OperationVerdict& a,
                 const transdas::OperationVerdict& b) {
  return a.position == b.position && a.rank == b.rank &&
         a.abnormal == b.abnormal && SameBits(a.score, b.score) &&
         SameBits(a.margin, b.margin);
}

/// (b) Two detectors (in-memory model vs model reloaded from file) give
/// bitwise-identical verdicts on the sample sessions.
void CheckSameVerdicts(const transdas::TransDasDetector& expected,
                       const transdas::TransDasDetector& actual,
                       const std::vector<std::vector<int>>& sessions,
                       Failures* f) {
  for (size_t s = 0; s < sessions.size(); ++s) {
    const transdas::SessionVerdict a = expected.DetectSession(sessions[s]);
    const transdas::SessionVerdict b = actual.DetectSession(sessions[s]);
    bool same = a.abnormal == b.abnormal &&
                a.operations.size() == b.operations.size();
    for (size_t i = 0; same && i < a.operations.size(); ++i) {
      same = SameVerdict(a.operations[i], b.operations[i]);
    }
    if (!same) Fail(f, "reload: verdicts differ on sample " + std::to_string(s));
  }
}

/// (c) The log read back from text equals the generated sessions.
void CheckLogRoundTrip(const std::vector<sql::RawSession>& generated,
                       const util::Result<std::vector<sql::RawSession>>& read,
                       Failures* f) {
  if (!read.ok()) {
    Fail(f, "log: " + read.status().ToString());
    return;
  }
  const std::vector<sql::RawSession>& got = read.value();
  if (got.size() != generated.size()) {
    Fail(f, "log: " + std::to_string(got.size()) + " sessions read, " +
                std::to_string(generated.size()) + " written");
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const sql::RawSession& a = generated[i];
    const sql::RawSession& b = got[i];
    bool same = a.attrs.user == b.attrs.user &&
                a.attrs.client_address == b.attrs.client_address &&
                a.attrs.start_time_s == b.attrs.start_time_s &&
                a.operations.size() == b.operations.size();
    for (size_t j = 0; same && j < a.operations.size(); ++j) {
      same = a.operations[j].sql == b.operations[j].sql &&
             a.operations[j].time_offset_s == b.operations[j].time_offset_s;
    }
    if (!same) Fail(f, "log: session " + std::to_string(i) + " differs");
  }
}

std::string SessionId(size_t index) { return "s" + std::to_string(index + 1); }

/// (d) The audit file holds exactly one record per scored op, carrying
/// that verdict's rank and flag.
void CheckAudit(const std::vector<transdas::SessionVerdict>& verdicts,
                const std::vector<obs::AuditRecord>& records, Failures* f) {
  std::map<std::pair<std::string, int>, const transdas::OperationVerdict*>
      expected;
  for (size_t s = 0; s < verdicts.size(); ++s) {
    for (const transdas::OperationVerdict& op : verdicts[s].operations) {
      expected[{SessionId(s), op.position}] = &op;
    }
  }
  if (records.size() != expected.size()) {
    Fail(f, "audit: " + std::to_string(records.size()) + " records for " +
                std::to_string(expected.size()) + " scored ops");
  }
  for (const obs::AuditRecord& r : records) {
    auto it = expected.find({r.session_id, r.position});
    if (it == expected.end() || it->second == nullptr) {
      Fail(f, "audit: unexpected or duplicate record " + r.session_id + "/" +
                  std::to_string(r.position));
      continue;
    }
    if (r.rank != it->second->rank || r.abnormal != it->second->abnormal) {
      Fail(f, "audit: record " + r.session_id + "/" +
                  std::to_string(r.position) + " disagrees with its verdict");
    }
    it->second = nullptr;
  }
}

/// Verdict consistency: abnormal <=> rank > top_p, margin >= 0 <=> rank <=
/// top_p.
void CheckVerdictProperties(const transdas::OperationVerdict& op, int top_p,
                            const std::string& tag, Failures* f) {
  const bool over = op.rank > top_p;
  if (op.abnormal != over || (op.margin >= 0.0f) != !over) {
    Fail(f, tag + ": rank " + std::to_string(op.rank) + " abnormal " +
                std::to_string(op.abnormal) + " margin " +
                std::to_string(op.margin));
  }
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string self;  // argv[0], to start set-up probes
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".lifecycle_out";
  // Set-up probe mode (see SetupProbe).
  std::string probe_model, probe_log;
  int top_p = 0, lanes = 1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--probe-model") {
      a->probe_model = v;
    } else if (k == "--probe-log") {
      a->probe_log = v;
    } else if (k == "--top-p") {
      a->top_p = std::stoi(v);
    } else if (k == "--lanes") {
      a->lanes = std::stoi(v);
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  if (!a->probe_model.empty()) {
    return !a->probe_log.empty() && a->top_p > 0 && a->lanes > 0;
  }
  return have_workload && a->seconds > 0.0;
}

/// Ranks and flags of a session verdict, to compare verdicts across
/// processes.
std::string VerdictDigest(const transdas::SessionVerdict& v) {
  std::string d;
  for (const transdas::OperationVerdict& op : v.operations) {
    d += std::to_string(op.rank) + (op.abnormal ? "a" : "n") + ",";
  }
  return d;
}

/// Set-up probe: the cold set-up of a deployment in a fresh process, from
/// the process's start through LoadModelFromFile, detector construction (as
/// ucad_cli builds it) and the first session's log text to its verdict.
/// Prints the seconds taken and the verdict's digest.
int SetupProbe(const Args& a) {
  util::SetNumThreads(a.lanes);
  auto loaded = transdas::LoadModelFromFile(a.probe_model);
  if (!loaded.ok()) return 1;
  const transdas::TransDasDetector detector(
      loaded.value().model.get(), transdas::DetectorOptions{.top_p = a.top_p});
  const auto log = sql::ReadSessionLogFile(a.probe_log);
  if (!log.ok() || log.value().empty()) return 1;
  const sql::KeySession first =
      sql::TokenizeSessionFrozen(log.value().front(), loaded.value().vocabulary);
  const transdas::SessionVerdict v = detector.DetectSession(first.keys);
  const double seconds = SecondsSince(g_process_start);
  std::printf("%.9g %s\n", seconds, VerdictDigest(v).c_str());
  return 0;
}

/// Starts `argv` as a child process, collects its standard output and waits
/// for it to end. True when it exited with code 0.
bool RunChild(const std::vector<std::string>& argv, std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return false;
  }
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) out->append(buf, n);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct TriageItem {
  int session = 0;
  int position = 0;
};

struct StreamEvent {
  int64_t time_s = 0;
  int session = 0;
  int op = 0;
};

/// Per-phase timing of traced vs untraced passes over the same work. The
/// pairs alternate which pass runs first, so the second pass's warm caches
/// favour neither; the median ratio keeps an item hit by load from
/// elsewhere on the machine from deciding the figure.
struct Overhead {
  int pairs = 0;
  std::vector<double> ratios;  // traced / untraced - 1, per item of a pair
  /// True when the next pair runs its traced pass first.
  bool TracedFirst() const { return pairs % 2 == 1; }
  void Add(const std::vector<double>& untraced_s,
           const std::vector<double>& traced_s) {
    for (size_t i = 0; i < untraced_s.size() && i < traced_s.size(); ++i) {
      ratios.push_back(traced_s[i] / untraced_s[i] - 1.0);
    }
    ++pairs;
  }
  void Add(double untraced_s, double traced_s) {
    Add(std::vector<double>{untraced_s}, std::vector<double>{traced_s});
  }
  double Share() const;
};

/// Stated bound on the tracing overhead of every phase; a traced run that
/// exceeds it fails.
constexpr double kTraceOverheadBound = 0.10;

class Run {
 public:
  Run(const Args& args, Workload w) : args_(args), w_(std::move(w)) {}

  int Main();

 private:
  void Train();
  bool Setup();
  double ScreenRound(bool keep, bool timed,
                     std::vector<double>* session_s = nullptr);
  double ScreenUnit();
  void ScreenSummary();
  double TriageRound(size_t begin, size_t count, bool keep);
  double TriageUnit();
  double EpochUnit();
  double StreamRound(size_t begin, size_t count, bool keep);
  double StreamUnit();
  void OnlinePhases();
  void Check();
  void SelfTest();
  void MeasureInfer();
  void CheckTraceOverhead();
  void Report();

  double PhaseBudget(double share) const { return args_.seconds * share; }

  static constexpr size_t kTriageChunk = 32;
  static constexpr size_t kStreamChunk = 256;
  // Triage repeats a seeded sample of the flagged ops and streaming replays
  // a seeded sample of sessions, so that every op is timed many times.
  static constexpr size_t kTriageSample = 128;
  static constexpr size_t kStreamScoredOps = 1000;
  static constexpr int kSetupProbes = 15;

  Args args_;
  Workload w_;
  std::string dir_;
  Inputs in_;
  std::string train_path_, screen_path_, model_path_, audit_path_;
  Failures failures_;

  // train
  double train_s_ = 0.0;
  std::vector<transdas::EpochStats> epochs_;
  std::unique_ptr<prep::Preprocessor> prep_;
  std::vector<sql::KeySession> purified_;
  std::unique_ptr<transdas::TransDasModel> trained_;
  Clock::time_point train_start_, train_end_;
  // Epochs of the same training replayed during the online phases, on a
  // model of its own, for train_s and train_windows_per_s only.
  std::vector<std::vector<int>> train_sessions_;
  std::unique_ptr<transdas::TransDasModel> replay_model_;
  std::unique_ptr<transdas::TransDasTrainer> replay_trainer_;
  std::vector<transdas::EpochStats> replay_epochs_;

  // setup
  double setup_s_ = 0.0;
  transdas::ModelBundle bundle_;
  std::unique_ptr<transdas::TransDasDetector> detector_;
  double load_ms_ = 0.0;

  // screen
  std::vector<transdas::SessionVerdict> screen_verdicts_;  // first round
  std::vector<std::vector<int>> screen_keys_;              // first round
  util::Result<std::vector<sql::RawSession>> screen_read_ =
      std::vector<sql::RawSession>();
  uint64_t screen_ops_ = 0;
  uint64_t round_ops_ = 0;  // ops scored by one round
  // Fastest time of each session, and of the round's fixed part (audit
  // open, log read, audit close), over the timed rounds.
  std::vector<double> screen_best_session_s_;
  double screen_best_fixed_s_ = HUGE_VAL;
  int screen_rounds_ = 0;
  bool rounds_agree_ = true;
  uint64_t audit_records_ = 0, audit_bytes_ = 0;

  // triage
  size_t flagged_ = 0;
  std::vector<TriageItem> triage_items_;  // the sample of flagged ops
  std::vector<std::vector<transdas::TransDasDetector::Candidate>> explains_;
  std::vector<transdas::TransDasDetector::VerdictAttribution> attributions_;
  uint64_t triage_ops_ = 0;
  size_t triage_cursor_ = 0;
  std::vector<double> triage_best_s_;  // fastest time of each item

  // stream
  std::vector<StreamEvent> events_;
  std::vector<std::vector<int>> history_;
  std::vector<transdas::OperationVerdict> stream_verdicts_;  // by event
  std::vector<std::vector<int>> stream_preceding_;           // by event
  std::vector<double> stream_best_us_;  // fastest latency of each event
  uint64_t stream_ops_ = 0;
  size_t stream_cursor_ = 0;

  uint64_t attempted_ = 0, failed_ = 0;
  double detect_f1_ = 0.0;
  double peak_rss_mb_ = 0.0;

  // traced-run measurements
  Overhead over_screen_, over_triage_, over_stream_;
  double span_cost_s_ = 0.0;
  size_t train_spans_ = 0;
  std::map<std::string, double> infer_;
};

int Run::Main() {
  dir_ = args_.out + "/run-" + w_.name + "-" + std::to_string(args_.seed);
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  train_path_ = dir_ + "/train.log";
  screen_path_ = dir_ + "/screen.log";
  model_path_ = dir_ + "/model.bin";
  audit_path_ = dir_ + "/audit.jsonl";
  util::SetNumThreads(w_.lanes);

  in_ = GenerateInputs(w_, args_.seed);
  {
    std::ofstream t(train_path_);
    sql::WriteSessionLog(in_.train_log, t);
    std::ofstream s(screen_path_);
    sql::WriteSessionLog(in_.screen, s);
    if (!t.good() || !s.good()) {
      std::fprintf(stderr, "cannot write logs under %s\n", dir_.c_str());
      return 2;
    }
  }
  if (args_.trace) g_tracer.Reserve(1 << 20);
  g_tracer.set_on(args_.trace);
  Train();
  g_tracer.set_on(false);
  train_spans_ = g_tracer.spans().size();
  // A run that cannot reach the checks prints no result line.
  auto abort = [this] {
    for (const std::string& m : failures_) {
      std::fprintf(stderr, "%s\n", m.c_str());
    }
    return 1;
  };
  if (!failures_.empty() || !Setup()) return abort();
  OnlinePhases();
  // The peak is read before the checks, which hold copies of the outputs
  // (audit records read back, the log rewritten) that are the benchmark's
  // own and not the lifecycle's.
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (triage_items_.empty()) return abort();
  Check();
  SelfTest();
  if (args_.trace) {
    MeasureInfer();
    CheckTraceOverhead();
  }
  Report();
  std::filesystem::remove_all(dir_);
  return failures_.empty() ? 0 : 1;
}

void Run::Train() {
  train_start_ = Clock::now();
  auto phase = g_tracer.Begin(kPhaseTrain);
  util::Result<std::vector<sql::RawSession>> log =
      std::vector<sql::RawSession>();
  {
    auto s = g_tracer.Begin(kReadLog);
    log = sql::ReadSessionLogFile(train_path_);
  }
  if (!log.ok()) {
    Fail(&failures_, "train log: " + log.status().ToString());
    return;
  }
  // Model init and preprocessing randomness are program settings, fixed
  // like core::UcadOptions::seed; only the inputs follow --seed.
  util::Rng rng(1);
  prep_ = std::make_unique<prep::Preprocessor>(
      prep::MakeDefaultPolicyEngine(w_.spec.users, w_.spec.addresses,
                                    w_.spec.business_start_hour,
                                    w_.spec.business_end_hour),
      core::UcadOptions::DefaultFilter());
  {
    auto s = g_tracer.Begin(kPurify);
    purified_ = prep_->PrepareTrainingData(log.value(), &rng);
  }
  if (purified_.empty()) {
    Fail(&failures_, "purification removed every session");
    return;
  }
  std::vector<std::vector<int>> sessions;
  sessions.reserve(purified_.size());
  for (const sql::KeySession& s : purified_) sessions.push_back(s.keys);
  transdas::TransDasConfig config = w_.model;
  config.vocab_size = prep_->vocabulary().size();
  trained_ = std::make_unique<transdas::TransDasModel>(config, &rng);
  {
    auto s = g_tracer.Begin(kTrainFit);
    transdas::TransDasTrainer trainer(trained_.get(), w_.training);
    epochs_ = trainer.Train(sessions);
  }
  train_sessions_ = std::move(sessions);
  util::Status saved;
  {
    auto s = g_tracer.Begin(kSaveModel);
    saved = transdas::SaveModelToFile(trained_.get(), prep_->vocabulary(),
                                      model_path_);
  }
  if (!saved.ok()) Fail(&failures_, "save: " + saved.ToString());
  train_end_ = Clock::now();
  train_s_ = std::chrono::duration<double>(train_end_ - train_start_).count();
}

bool Run::Setup() {
  // This process's own detector, for the online phases.
  const Clock::time_point t0 = Clock::now();
  auto loaded = transdas::LoadModelFromFile(model_path_);
  load_ms_ = SecondsSince(t0) * 1e3;
  if (!loaded.ok()) {
    Fail(&failures_, "load: " + loaded.status().ToString());
    return false;
  }
  bundle_ = std::move(loaded.value());
  detector_ = std::make_unique<transdas::TransDasDetector>(
      bundle_.model.get(), transdas::DetectorOptions{.top_p = w_.top_p});
  const sql::KeySession first =
      sql::TokenizeSessionFrozen(in_.screen.front(), bundle_.vocabulary);
  const std::string want = VerdictDigest(detector_->DetectSession(first.keys));

  // setup_s: model file -> first verdict, cold, in fresh processes. A second
  // set-up in this process would be a warm one, so each probe is a process
  // of its own; the median of the probes is the run's figure.
  const std::string first_log = dir_ + "/first.log";
  {
    std::ofstream os(first_log);
    sql::WriteSessionLog({in_.screen.front()}, os);
    if (!os.good()) {
      Fail(&failures_, "cannot write " + first_log);
      return false;
    }
  }
  const std::vector<std::string> argv = {
      args_.self,     "--probe-model", model_path_,
      "--probe-log",  first_log,       "--top-p",
      std::to_string(w_.top_p),        "--lanes",
      std::to_string(w_.lanes)};
  std::vector<double> probes;
  for (int k = 0; k < kSetupProbes; ++k) {
    std::string out;
    if (!RunChild(argv, &out)) {
      Fail(&failures_, "set-up probe failed to run: " + args_.self);
      return false;
    }
    std::istringstream is(out);
    double seconds = 0.0;
    std::string digest;
    is >> seconds >> digest;
    if (digest != want) {
      Fail(&failures_, "set-up probe: first verdict " + digest +
                           " differs from this process's " + want);
      return false;
    }
    probes.push_back(seconds);
  }
  setup_s_ = Median(probes);
  std::fprintf(stderr, "set-up probes: min %.3f ms, median %.3f ms, max %.3f ms\n",
               *std::min_element(probes.begin(), probes.end()) * 1e3,
               setup_s_ * 1e3,
               *std::max_element(probes.begin(), probes.end()) * 1e3);
  return true;
}

/// One screening round. `session_s`, when given, receives each session's
/// time from its tokenization through its audit records.
double Run::ScreenRound(bool keep, bool timed,
                        std::vector<double>* session_s) {
  const Clock::time_point t0 = Clock::now();
  auto round = g_tracer.Begin(kRoundScreen);
  auto audit = obs::AuditLog::Open(audit_path_);
  if (!audit.ok()) {
    Fail(&failures_, "audit open: " + audit.status().ToString());
    return SecondsSince(t0);
  }
  obs::AuditLog& log_out = *audit.value();
  util::Result<std::vector<sql::RawSession>> log =
      std::vector<sql::RawSession>();
  {
    auto s = g_tracer.Begin(kReadLog);
    log = sql::ReadSessionLogFile(screen_path_);
  }
  if (!log.ok()) {
    Fail(&failures_, "screen log: " + log.status().ToString());
    return SecondsSince(t0);
  }
  const std::vector<sql::RawSession>& sessions = log.value();
  const sql::Vocabulary& vocab = bundle_.vocabulary;
  std::vector<transdas::SessionVerdict> verdicts(sessions.size());
  std::vector<std::vector<int>> all_keys(sessions.size());
  // The audit queue holds 8192 records and drops beyond that; flushing every
  // 4096 records keeps it from overflowing, so a drop is a real fault.
  constexpr size_t kFlushEvery = 4096;
  size_t pending = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const Clock::time_point session_start = Clock::now();
    const int32_t sid = static_cast<int32_t>(i);
    sql::KeySession keys;
    {
      auto s = g_tracer.Begin(kTokenize, sid);
      keys = sql::TokenizeSessionFrozen(sessions[i], vocab);
    }
    transdas::SessionVerdict verdict;
    {
      auto s = g_tracer.Begin(kDetect, sid);
      verdict = detector_->DetectSession(keys.keys);
    }
    const std::string id = SessionId(i);
    for (const transdas::OperationVerdict& op : verdict.operations) {
      obs::AuditRecord record;
      record.session_id = id;
      record.position = op.position;
      record.key = keys.keys[op.position];
      record.observed = record.key > 0 && record.key < vocab.size()
                            ? vocab.TemplateOf(record.key)
                            : sessions[i].operations[op.position].sql;
      record.rank = op.rank;
      record.score = op.score;
      record.margin = op.margin;
      record.abnormal = op.abnormal;
      bool accepted = false;
      {
        auto s = g_tracer.Begin(kAppend, sid);
        accepted = log_out.Append(std::move(record));
      }
      ++attempted_;
      if (!accepted) ++failed_;
    }
    if (timed) screen_ops_ += verdict.operations.size();
    pending += verdict.operations.size();
    if (pending >= kFlushEvery) {
      auto s = g_tracer.Begin(kDrain);
      log_out.Flush();
      pending = 0;
    }
    verdicts[i] = std::move(verdict);
    all_keys[i] = std::move(keys.keys);
    if (session_s != nullptr) session_s->push_back(SecondsSince(session_start));
  }
  {
    auto s = g_tracer.Begin(kDrain);
    log_out.Close();
  }
  const double elapsed = SecondsSince(t0);
  audit_records_ = log_out.appended();
  // Compare with the first round outside the timed part.
  if (keep) {
    screen_verdicts_ = std::move(verdicts);
    screen_keys_ = std::move(all_keys);
    screen_read_ = std::move(log);
  } else {
    for (size_t i = 0; i < verdicts.size() && rounds_agree_; ++i) {
      const auto& a = verdicts[i].operations;
      const auto& b = screen_verdicts_[i].operations;
      rounds_agree_ = a.size() == b.size();
      for (size_t j = 0; rounds_agree_ && j < a.size(); ++j) {
        rounds_agree_ = SameVerdict(a[j], b[j]);
      }
    }
  }
  return elapsed;
}

double Run::ScreenUnit() {
  const bool first = screen_rounds_ == 0;
  // In the traced run each round also runs with spans on: the pair gives
  // the phase's tracing overhead, session by session (a round is too long a
  // unit to pair: few fit in a run, and load from elsewhere varies across
  // one), and the traced copy feeds the per-layer figures.
  std::vector<double> untraced_s, traced_s;
  auto traced_round = [&] {
    g_tracer.set_on(true);
    const double t = ScreenRound(false, false, &traced_s);
    g_tracer.set_on(false);
    return t;
  };
  const bool traced_first = args_.trace && over_screen_.TracedFirst();
  const double traced_before = traced_first ? traced_round() : 0.0;
  const uint64_t ops_before = screen_ops_;
  const double t = ScreenRound(first, true, &untraced_s);
  round_ops_ = screen_ops_ - ops_before;
  screen_best_session_s_.resize(untraced_s.size(), HUGE_VAL);
  double sessions_s = 0.0;
  for (size_t i = 0; i < untraced_s.size(); ++i) {
    sessions_s += untraced_s[i];
    screen_best_session_s_[i] =
        std::min(screen_best_session_s_[i], untraced_s[i]);
  }
  screen_best_fixed_s_ = std::min(screen_best_fixed_s_, t - sessions_s);
  ++screen_rounds_;
  if (!args_.trace) return t;
  const double traced = traced_first ? traced_before : traced_round();
  over_screen_.Add(untraced_s, traced_s);
  return t + traced;
}

void Run::ScreenSummary() {
  std::error_code ec;
  audit_bytes_ = std::filesystem::file_size(audit_path_, ec);
  // Session-level F1 of the first round against the generator's labels.
  uint64_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < screen_verdicts_.size(); ++i) {
    const bool truth = sql::IsAbnormalLabel(in_.screen[i].label);
    const bool flag = screen_verdicts_[i].abnormal;
    tp += truth && flag;
    fp += !truth && flag;
    fn += truth && !flag;
  }
  detect_f1_ = tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn);
}

double Run::TriageRound(size_t begin, size_t count, bool keep) {
  const Clock::time_point t0 = Clock::now();
  auto round = g_tracer.Begin(kRoundTriage);
  for (size_t c = 0; c < count; ++c) {
    const size_t idx = (begin + c) % triage_items_.size();
    const TriageItem& item = triage_items_[idx];
    const std::vector<int>& keys = screen_keys_[item.session];
    const Clock::time_point item_start = Clock::now();
    std::vector<transdas::TransDasDetector::Candidate> expected;
    {
      auto s = g_tracer.Begin(kExplain, item.session);
      expected = detector_->ExplainOperation(keys, item.position, 3);
    }
    transdas::TransDasDetector::VerdictAttribution attribution;
    {
      auto s = g_tracer.Begin(kAttribute, item.session);
      attribution = detector_->AttributeOperation(keys, item.position, 3);
    }
    ++attempted_;
    if (!keep) continue;
    triage_best_s_[idx] =
        std::min(triage_best_s_[idx], SecondsSince(item_start));
    ++triage_ops_;
    if (explains_[idx].empty()) {
      explains_[idx] = std::move(expected);
      attributions_[idx] = std::move(attribution);
    }
  }
  return SecondsSince(t0);
}

double Run::TriageUnit() {
  auto traced_round = [this] {
    g_tracer.set_on(true);
    const double t = TriageRound(triage_cursor_, kTriageChunk, false);
    g_tracer.set_on(false);
    return t;
  };
  const bool traced_first = args_.trace && over_triage_.TracedFirst();
  const double traced_before = traced_first ? traced_round() : 0.0;
  const double t = TriageRound(triage_cursor_, kTriageChunk, true);
  double spent = t;
  if (args_.trace) {
    const double traced = traced_first ? traced_before : traced_round();
    over_triage_.Add(t, traced);
    spent += traced;
  }
  triage_cursor_ += kTriageChunk;
  return spent;
}

double Run::EpochUnit() {
  // The replayed epochs train a copy of the initial model with the same
  // options on the same sessions, so each costs what one of the real
  // training's epochs does; they give the training figures samples from the
  // whole run and not only from its first part.
  const Clock::time_point t0 = Clock::now();
  if (replay_trainer_ == nullptr) {
    util::Rng rng(1);
    replay_model_ =
        std::make_unique<transdas::TransDasModel>(trained_->config(), &rng);
    transdas::TrainOptions options = w_.training;
    options.epochs = 1;
    replay_trainer_ = std::make_unique<transdas::TransDasTrainer>(
        replay_model_.get(), options);
  }
  for (const transdas::EpochStats& e :
       replay_trainer_->Train(train_sessions_)) {
    replay_epochs_.push_back(e);
  }
  return SecondsSince(t0);
}

double Run::StreamRound(size_t begin, size_t count, bool keep) {
  const sql::Vocabulary& vocab = bundle_.vocabulary;
  const Clock::time_point t0 = Clock::now();
  auto round = g_tracer.Begin(kRoundStream);
  for (size_t c = 0; c < count; ++c) {
    const size_t idx = (begin + c) % events_.size();
    if (idx == 0) {
      for (auto& h : history_) h.clear();
    }
    const StreamEvent& ev = events_[idx];
    const Clock::time_point arrival = Clock::now();
    sql::Statement stmt;
    {
      auto s = g_tracer.Begin(kParse, ev.session);
      stmt = sql::ParseStatement(
          in_.screen[ev.session].operations[ev.op].sql);
    }
    int key = 0;
    {
      auto s = g_tracer.Begin(kLookup, ev.session);
      key = vocab.Lookup(stmt.template_text);
    }
    std::vector<int>& history = history_[ev.session];
    if (!history.empty()) {
      transdas::OperationVerdict v;
      {
        auto s = g_tracer.Begin(kScoreNext, ev.session);
        v = detector_->ScoreNextOperation(history, key);
      }
      ++attempted_;
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - arrival)
              .count();
      if (keep) {
        stream_best_us_[idx] = std::min(stream_best_us_[idx], us);
        ++stream_ops_;
        if (begin + c < events_.size()) {  // first pass over the events
          v.position = static_cast<int>(history.size());
          stream_verdicts_[idx] = v;
          stream_preceding_[idx] = history;
        }
      }
    }
    history.push_back(key);
  }
  return SecondsSince(t0);
}

double Run::StreamUnit() {
  const bool wrapped = stream_cursor_ / events_.size() !=
                       (stream_cursor_ + kStreamChunk - 1) / events_.size();
  const bool paired = args_.trace && !wrapped;
  // The traced copy replays the chunk from the same session histories:
  // before the untraced pass, the histories are rewound after it; after it,
  // they are rewound to the chunk's start and restored afterwards.
  std::vector<size_t> lengths;
  if (paired) {
    for (const auto& h : history_) lengths.push_back(h.size());
  }
  auto rewind = [&] {
    for (size_t s = 0; s < history_.size(); ++s) history_[s].resize(lengths[s]);
  };
  auto traced_round = [this] {
    g_tracer.set_on(true);
    const double t = StreamRound(stream_cursor_, kStreamChunk, false);
    g_tracer.set_on(false);
    return t;
  };
  const bool traced_first = paired && over_stream_.TracedFirst();
  double traced = 0.0;
  if (traced_first) {
    traced = traced_round();
    rewind();
  }
  const double t = StreamRound(stream_cursor_, kStreamChunk, true);
  if (paired && !traced_first) {
    std::vector<std::vector<int>> saved = history_;
    rewind();
    traced = traced_round();
    history_ = std::move(saved);
  }
  if (paired) over_stream_.Add(t, traced);
  stream_cursor_ += kStreamChunk;
  return t + traced;
}

void Run::OnlinePhases() {
  // The first screening round yields the flagged ops that triage works on.
  double spent[4] = {ScreenUnit(), 0.0, 0.0, 0.0};
  ScreenSummary();
  for (size_t s = 0; s < screen_verdicts_.size(); ++s) {
    for (const auto& op : screen_verdicts_[s].operations) {
      if (op.abnormal) {
        triage_items_.push_back(TriageItem{static_cast<int>(s), op.position});
      }
    }
  }
  flagged_ = triage_items_.size();
  if (triage_items_.empty()) {
    Fail(&failures_, "triage: no flagged operation to triage");
    return;
  }
  // Triage and streaming each repeat a seeded sample many times, so that
  // every op's cost is read from its fastest repetition: load from
  // elsewhere on a shared machine comes and goes over seconds and only ever
  // slows an op down.
  util::Rng rng(args_.seed ^ 0x7a11ULL);
  rng.Shuffle(&triage_items_);
  if (triage_items_.size() > kTriageSample) triage_items_.resize(kTriageSample);
  explains_.assign(triage_items_.size(), {});
  attributions_.assign(triage_items_.size(), {});
  triage_best_s_.assign(triage_items_.size(), HUGE_VAL);
  // Stream sample: sessions drawn in turn from each of the six sets
  // (V1..A3 are stored set after set, equal in size), until the sample
  // holds kStreamScoredOps scored ops.
  const size_t per_set = in_.screen.size() / 6;
  std::vector<size_t> order(per_set);
  for (size_t i = 0; i < per_set; ++i) order[i] = i;
  rng.Shuffle(&order);
  size_t scored = 0;
  for (size_t j = 0; j < per_set && scored < kStreamScoredOps; ++j) {
    for (size_t set = 0; set < 6 && scored < kStreamScoredOps; ++set) {
      const size_t s = set * per_set + order[j];
      const sql::RawSession& raw = in_.screen[s];
      for (size_t k = 0; k < raw.operations.size(); ++k) {
        events_.push_back(StreamEvent{
            raw.attrs.start_time_s + raw.operations[k].time_offset_s,
            static_cast<int>(s), static_cast<int>(k)});
      }
      if (!raw.operations.empty()) scored += raw.operations.size() - 1;
    }
  }
  // Each session's ops keep their order: its timestamps never decrease.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.time_s < b.time_s;
                   });
  history_.assign(in_.screen.size(), {});
  stream_verdicts_.assign(events_.size(), {});
  stream_preceding_.assign(events_.size(), {});
  stream_best_us_.assign(events_.size(), HUGE_VAL);

  // Screen rounds, triage chunks, stream chunks and replayed epochs
  // interleave, each phase taking the next unit while it is furthest behind
  // its share of --seconds. Every phase then samples the whole run, so load
  // from elsewhere on the machine does not land on one phase alone.
  const double budget[4] = {PhaseBudget(0.27), PhaseBudget(0.18),
                            PhaseBudget(0.40), PhaseBudget(0.15)};
  for (;;) {
    int next = -1;
    double lag = 1.0;
    for (int i = 0; i < 4; ++i) {
      const double done = spent[i] / budget[i];
      if (done < lag) {
        lag = done;
        next = i;
      }
    }
    if (next < 0 || !failures_.empty()) break;
    spent[next] += next == 0   ? ScreenUnit()
                   : next == 1 ? TriageUnit()
                   : next == 2 ? StreamUnit()
                               : EpochUnit();
  }
}

void Run::Check() {
  const int top_p = w_.top_p;
  util::Rng rng(args_.seed ^ 0x5eed5eedULL);
  transdas::TransDasModel* model = bundle_.model.get();

  // (a) screened and streamed verdicts recomputed through the tape.
  for (int k = 0; k < 16; ++k) {
    const size_t s = rng.UniformU64(screen_verdicts_.size());
    CheckScreenVerdictsByTape(model, top_p, screen_keys_[s],
                              screen_verdicts_[s],
                              "tape/screen " + SessionId(s), &failures_);
  }
  std::vector<size_t> streamed;
  for (size_t i = 0; i < stream_verdicts_.size(); ++i) {
    if (stream_verdicts_[i].rank != 0) streamed.push_back(i);
  }
  for (int k = 0; k < 128 && !streamed.empty(); ++k) {
    const size_t i = streamed[rng.UniformU64(streamed.size())];
    const StreamEvent& ev = events_[i];
    const int key = bundle_.vocabulary.Lookup(
        sql::ParseStatement(in_.screen[ev.session].operations[ev.op].sql)
            .template_text);
    if (key != screen_keys_[ev.session][ev.op]) {
      Fail(&failures_, "stream: key differs from the screened session's");
    }
    CheckStreamVerdictByTape(model, top_p, stream_preceding_[i], key,
                             stream_verdicts_[i],
                             "tape/stream event " + std::to_string(i),
                             &failures_);
  }

  // (b) the reloaded model gives the in-memory model's verdicts.
  std::vector<std::vector<int>> sample;
  for (int k = 0; k < 16; ++k) {
    sample.push_back(screen_keys_[rng.UniformU64(screen_keys_.size())]);
  }
  const transdas::TransDasDetector in_memory(
      trained_.get(), transdas::DetectorOptions{.top_p = top_p});
  CheckSameVerdicts(in_memory, *detector_, sample, &failures_);

  // (c) the screening log read back equals the generated sessions.
  CheckLogRoundTrip(in_.screen, screen_read_, &failures_);

  // (d) the audit file of the last round: one record per scored op.
  auto records = obs::ReadAuditLogFile(audit_path_);
  if (!records.ok()) {
    Fail(&failures_, "audit read: " + records.status().ToString());
  } else {
    CheckAudit(screen_verdicts_, records.value(), &failures_);
  }
  if (!rounds_agree_) Fail(&failures_, "screen rounds disagree");

  // Properties of the method.
  if (epochs_.size() < 2 ||
      !(epochs_.back().mean_loss < epochs_.front().mean_loss)) {
    Fail(&failures_, "training loss did not fall");
  }
  int noisy = 0;
  int normal_rejected = 0, noisy_admitted = 0;
  for (size_t i = 0; i < in_.train_log.size(); ++i) {
    const bool admitted = prep_->policy_engine().Admits(in_.train_log[i]);
    noisy += in_.train_noisy[i];
    normal_rejected += !in_.train_noisy[i] && !admitted;
    noisy_admitted += in_.train_noisy[i] && admitted;
  }
  if (noisy_admitted != 0 || normal_rejected != 0 ||
      prep_->rejected_by_policy() != noisy) {
    Fail(&failures_, "purification: " + std::to_string(noisy_admitted) +
                         " noisy admitted, " +
                         std::to_string(normal_rejected) +
                         " normal rejected, " +
                         std::to_string(prep_->rejected_by_policy()) +
                         " rejected of " + std::to_string(noisy) + " noisy");
  }
  int flagged[2] = {0, 0}, total[2] = {0, 0};
  for (size_t i = 0; i < screen_verdicts_.size(); ++i) {
    const int a = sql::IsAbnormalLabel(in_.screen[i].label) ? 1 : 0;
    ++total[a];
    flagged[a] += screen_verdicts_[i].abnormal;
  }
  if (!(static_cast<double>(flagged[1]) * total[0] >
        static_cast<double>(flagged[0]) * total[1])) {
    Fail(&failures_, "A1-A3 flagged share does not exceed V1-V3's");
  }
  const double p = static_cast<double>(total[1]) / (total[0] + total[1]);
  const double flag_all_f1 = 2.0 * p / (p + 1.0);
  if (!(detect_f1_ > flag_all_f1)) {
    Fail(&failures_, "detect_f1 " + std::to_string(detect_f1_) +
                         " does not beat flag-all F1 " +
                         std::to_string(flag_all_f1));
  }
  for (size_t s = 0; s < screen_verdicts_.size(); ++s) {
    for (const auto& op : screen_verdicts_[s].operations) {
      CheckVerdictProperties(op, top_p, "screen " + SessionId(s), &failures_);
    }
  }
  for (size_t i : streamed) {
    CheckVerdictProperties(stream_verdicts_[i], top_p,
                           "stream event " + std::to_string(i), &failures_);
  }
  std::vector<size_t> triaged;
  for (size_t i = 0; i < attributions_.size(); ++i) {
    if (explains_[i].empty()) continue;
    triaged.push_back(i);
    const TriageItem& item = triage_items_[i];
    const transdas::OperationVerdict& v = attributions_[i].verdict;
    CheckVerdictProperties(v, top_p, "attribution", &failures_);
    const int key = screen_keys_[item.session][item.position];
    if (key > 0 && explains_[i].front().score < v.score) {
      Fail(&failures_, "explain: top candidate scores below observed key");
    }
  }
  // Attribution counterfactuals equal from-scratch streaming scores of the
  // session with that context position masked to k0.
  for (int k = 0; k < 24 && !triaged.empty(); ++k) {
    const size_t i = triaged[rng.UniformU64(triaged.size())];
    const TriageItem& item = triage_items_[i];
    const std::vector<int>& keys = screen_keys_[item.session];
    for (const auto& entry : attributions_[i].contributions) {
      std::vector<int> masked(keys.begin(), keys.begin() + item.position);
      masked[entry.session_position] = 0;
      const transdas::OperationVerdict v =
          detector_->ScoreNextOperation(masked, keys[item.position]);
      const nn::RowScore& cf = entry.counterfactual;
      if (v.rank != cf.rank || v.abnormal != cf.abnormal ||
          !SameBits(v.score, cf.score) || !SameBits(v.margin, cf.margin)) {
        Fail(&failures_, "attribution counterfactual differs from rescoring");
      }
    }
  }
}

void Run::SelfTest() {
  // Each corrupted input must make its check fail; otherwise the check
  // could pass vacuously.
  util::Rng rng(args_.seed ^ 0xbadc0deULL);
  transdas::TransDasModel* model = bundle_.model.get();
  const size_t s = [&] {
    for (size_t i = 0; i < screen_verdicts_.size(); ++i) {
      if (!screen_verdicts_[i].operations.empty()) return i;
    }
    return size_t{0};
  }();
  {
    transdas::SessionVerdict flipped = screen_verdicts_[s];
    auto& op = flipped.operations[rng.UniformU64(flipped.operations.size())];
    op.abnormal = !op.abnormal;
    Failures f;
    CheckScreenVerdictsByTape(model, w_.top_p, screen_keys_[s], flipped, "",
                              &f);
    if (f.empty()) Fail(&failures_, "self-test: flipped verdict not caught");
  }
  {
    auto records = obs::ReadAuditLogFile(audit_path_);
    if (records.ok() && !records.value().empty()) {
      std::vector<obs::AuditRecord> dropped = records.value();
      dropped.erase(dropped.begin() + rng.UniformU64(dropped.size()));
      Failures f;
      CheckAudit(screen_verdicts_, dropped, &f);
      if (f.empty()) Fail(&failures_, "self-test: dropped record not caught");
    }
  }
  {
    std::stringstream text;
    sql::WriteSessionLog(in_.screen, text);
    std::string truncated = text.str();
    truncated.resize(truncated.rfind('\n', truncated.size() * 9 / 10) + 1);
    std::istringstream is(truncated);
    Failures f;
    CheckLogRoundTrip(in_.screen, sql::ReadSessionLog(is), &f);
    if (f.empty()) Fail(&failures_, "self-test: truncated log not caught");
  }
  {
    auto perturbed = transdas::LoadModelFromFile(model_path_);
    if (!perturbed.ok()) {
      Fail(&failures_, "self-test: reload failed");
    } else {
      nn::Parameter* p = perturbed.value().model->Params().back();
      p->value().row(0)[0] += 0.5f;
      perturbed.value().model->MarkWeightsUpdated();
      const transdas::TransDasDetector in_memory(
          trained_.get(), transdas::DetectorOptions{.top_p = w_.top_p});
      const transdas::TransDasDetector bad(
          perturbed.value().model.get(),
          transdas::DetectorOptions{.top_p = w_.top_p});
      Failures f;
      CheckSameVerdicts(in_memory, bad, {screen_keys_[s]}, &f);
      if (f.empty()) Fail(&failures_, "self-test: perturbed weight not caught");
    }
  }
}

void Run::MeasureInfer() {
  // Layer timings of the inference engine on sampled workload windows,
  // through its public calls.
  transdas::TransDasModel* model = bundle_.model.get();
  const int L = model->config().window;
  const int vocab = model->config().vocab_size;
  const int h = model->config().hidden_dim;
  util::Rng rng(args_.seed ^ 0x1f1f1fULL);
  std::vector<std::pair<std::vector<int>, int>> windows;  // window, next key
  for (int k = 0; k < 64; ++k) {
    const auto& keys = screen_keys_[rng.UniformU64(screen_keys_.size())];
    if (keys.size() < 2) continue;
    const int pos = 1 + static_cast<int>(rng.UniformU64(keys.size() - 1));
    std::vector<int> window(L, 0);
    const int take = std::min(L, pos);
    for (int i = 0; i < take; ++i) {
      window[L - take + i] = SanitizeKey(keys[pos - take + i], vocab);
    }
    windows.emplace_back(std::move(window), keys[pos]);
  }
  if (windows.empty()) {
    Fail(&failures_, "infer: no window to sample");
    return;
  }
  std::vector<double> cold, full, row, logits, scan;
  for (int k = 0; k < 8; ++k) {
    nn::InferenceContext fresh;
    const Clock::time_point t0 = Clock::now();
    model->ForwardInference(&fresh, windows[k % windows.size()].first, 0);
    cold.push_back(SecondsSince(t0) * 1e6);
  }
  nn::InferenceContext ctx;
  model->ForwardInference(&ctx, windows[0].first, 0);  // warm
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& [window, key] : windows) {
      Clock::time_point t0 = Clock::now();
      model->ForwardInference(&ctx, window, 0);
      full.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      const nn::Tensor& out = model->ForwardInference(&ctx, window, L - 1);
      row.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      const nn::Tensor& lg = model->AllKeyLogitsInference(&ctx, out, L - 1);
      logits.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      const nn::RowScore rs =
          nn::ScoreLogitsRow(lg.row(L - 1), vocab, key, w_.top_p);
      scan.push_back(SecondsSince(t0) * 1e6);
      if (rs.rank == 0) Fail(&failures_, "infer: empty rank");
    }
  }
  // FLOPs of one full-window forward from the model dimensions (not
  // measured): per block Q|K|V 6Lh^2, scores + context 4L^2h, Wo 2Lh^2,
  // FFN 4Lh^2.
  const double flop = static_cast<double>(model->config().num_blocks) *
                      (12.0 * L * h * h + 4.0 * L * L * h);
  infer_["infer.cold_forward_us"] = Median(cold);
  infer_["infer.forward_window_us"] = Median(full);
  infer_["infer.forward_row_us"] = Median(row);
  infer_["infer.logits_row_us"] = Median(logits);
  infer_["infer.scan_row_us"] = Median(scan);
  infer_["infer.forward_gflop_per_s"] = flop / (Median(full) * 1e3);

  // Cost of one recorded span, for the train phase's overhead estimate.
  Tracer probe;
  probe.set_on(true);
  probe.Reserve(1 << 16);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < (1 << 16); ++i) {
    auto s = probe.Begin(kAppend, i);
  }
  span_cost_s_ = SecondsSince(t0) / (1 << 16);
}

double Overhead::Share() const { return Median(ratios); }

void Run::CheckTraceOverhead() {
  const std::pair<const char*, const Overhead*> phases[] = {
      {"screen", &over_screen_},
      {"triage", &over_triage_},
      {"stream", &over_stream_}};
  for (const auto& [phase, over] : phases) {
    if (over->ratios.empty()) {
      Fail(&failures_, std::string("trace overhead: no ") + phase + " pair");
    } else if (over->Share() > kTraceOverheadBound) {
      Fail(&failures_, std::string("trace overhead: ") + phase + " " +
                           std::to_string(over->Share()) + " over the bound " +
                           std::to_string(kTraceOverheadBound));
    }
  }
  const double train = train_spans_ * span_cost_s_ / train_s_;
  if (train > kTraceOverheadBound) {
    Fail(&failures_, "trace overhead: train " + std::to_string(train) +
                         " over the bound");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Run::Report() {
  std::vector<Metric> m;
  // Every timing is the cost of a fixed piece of work read from its fastest
  // repetition: each epoch (real or replayed), each screened session, each
  // triaged op and each streamed op is repeated many times across the run.
  // Load from elsewhere on a shared machine slows memory-bound code by up to
  // 2x for seconds at a time and only ever slows a piece down, so the
  // fastest repetition tracks the program's own cost; a total or a median
  // tracks the load.
  if (!args_.trace) {
    double epochs_total_s = 0.0, windows = 0.0, best_rate = 0.0;
    for (const auto& e : epochs_) {
      epochs_total_s += e.seconds;
      windows += e.windows;
      best_rate = std::max(best_rate, e.WindowsPerSecond());
    }
    for (const auto& e : replay_epochs_) {
      best_rate = std::max(best_rate, e.WindowsPerSecond());
    }
    double screen_s = screen_best_fixed_s_;
    for (double t : screen_best_session_s_) screen_s += t;
    double triage_s = 0.0, triaged = 0.0;
    for (double t : triage_best_s_) {
      if (t == HUGE_VAL) continue;
      triage_s += t;
      ++triaged;
    }
    m.push_back({"setup_s", setup_s_, "s"});
    m.push_back({"train_s", train_s_ - epochs_total_s + windows / best_rate,
                 "s"});
    m.push_back({"train_windows_per_s", best_rate, "windows/s"});
    m.push_back({"screen_ops_per_s", round_ops_ / screen_s, "ops/s"});
    m.push_back({"triage_ops_per_s", triaged / triage_s, "ops/s"});
    m.push_back({"detect_f1", detect_f1_, "ratio"});
    // Quantiles over the sampled ops, each at its fastest replay: an op
    // that is slow on every replay moves them, a stall that lands on
    // different ops on different replays does not.
    std::vector<double> stream_us;
    for (double us : stream_best_us_) {
      if (us != HUGE_VAL) stream_us.push_back(us);
    }
    m.push_back({"stream_op_p50_us", Quantile(stream_us, 0.5), "us"});
    m.push_back({"stream_op_p99_us", Quantile(stream_us, 0.99), "us"});
    m.push_back({"peak_rss_mb", peak_rss_mb_, "MB"});
  } else {
    const std::vector<Span>& spans = g_tracer.spans();
    // Per span name: count and total duration; per layer: self time.
    std::vector<double> total_s(kSpanNameCount, 0.0);
    std::vector<uint64_t> count(kSpanNameCount, 0);
    std::vector<double> child_s(spans.size(), 0.0);
    double root_s = 0.0;
    std::vector<double> detect_us, score_us;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = (s.end_ns - s.start_ns) * 1e-9;
      total_s[s.name] += d;
      ++count[s.name];
      if (s.parent >= 0) {
        child_s[s.parent] += d;
      } else {
        root_s += d;
      }
      if (s.name == kDetect) detect_us.push_back(d * 1e6);
      if (s.name == kScoreNext) score_us.push_back(d * 1e6);
    }
    std::map<std::string, double> self_s;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      self_s[kSpanInfo[s.name].layer] +=
          (s.end_ns - s.start_ns) * 1e-9 - child_s[i];
    }
    auto mean_us = [&](SpanName n) {
      return count[n] == 0 ? 0.0 : total_s[n] / count[n] * 1e6;
    };
    const int L = bundle_.model->config().window;
    uint64_t windows = 0, round_ops = 0;
    for (const auto& keys : screen_keys_) {
      const uint64_t n = keys.size();
      if (n >= 2) windows += (n - 1 + L - 1) / L;
      round_ops += n;
    }
    std::error_code ec;
    const double screen_bytes =
        static_cast<double>(std::filesystem::file_size(screen_path_, ec));
    const double traced_screen_rounds =
        std::max<double>(1.0, count[kRoundScreen]);
    const double load_reads = count[kReadLog] - 1;  // minus the train log
    double read_screen_s = total_s[kReadLog];
    // The train log read is the first kReadLog span.
    for (const Span& s : spans) {
      if (s.name == kReadLog) {
        read_screen_s -= (s.end_ns - s.start_ns) * 1e-9;
        break;
      }
    }
    m.push_back({"sql.read_mb_per_s",
                 load_reads * screen_bytes / 1e6 / read_screen_s, "MB/s"});
    m.push_back({"sql.tokenize_us_per_op",
                 total_s[kTokenize] * 1e6 /
                     (traced_screen_rounds * static_cast<double>(round_ops)),
                 "us"});
    m.push_back({"prep.purify_s", total_s[kPurify], "s"});
    m.push_back({"prep.sessions_kept",
                 static_cast<double>(purified_.size()), "count"});
    std::vector<double> epoch_s;
    for (const auto& e : epochs_) epoch_s.push_back(e.seconds);
    m.push_back({"trainer.epoch_s", Median(epoch_s), "s"});
    m.push_back({"trainer.windows_per_epoch",
                 epochs_.empty() ? 0.0 : epochs_.front().windows, "count"});
    m.push_back({"serialization.save_ms", total_s[kSaveModel] * 1e3, "ms"});
    m.push_back({"serialization.load_ms", load_ms_, "ms"});
    m.push_back({"serialization.model_bytes",
                 static_cast<double>(std::filesystem::file_size(model_path_, ec)),
                 "bytes"});
    m.push_back({"detector.session_us_p50", Quantile(detect_us, 0.5),
                 "us"});
    m.push_back({"detector.session_us_p99", Quantile(detect_us, 0.99),
                 "us"});
    m.push_back({"detector.windows", static_cast<double>(windows), "count"});
    m.push_back({"detector.us_per_window",
                 total_s[kDetect] * 1e6 / (traced_screen_rounds * windows),
                 "us"});
    m.push_back({"detector.stream_us_p50", Quantile(score_us, 0.5),
                 "us"});
    m.push_back({"detector.stream_us_p99", Quantile(score_us, 0.99),
                 "us"});
    for (const auto& [name, value] : infer_) {
      m.push_back({name, value,
                   name == "infer.forward_gflop_per_s" ? "GFLOP/s" : "us"});
    }
    m.push_back({"explain.calls", static_cast<double>(count[kExplain]),
                 "count"});
    m.push_back({"explain.us_per_call", mean_us(kExplain), "us"});
    m.push_back({"attribute.calls", static_cast<double>(count[kAttribute]),
                 "count"});
    m.push_back({"attribute.us_per_call", mean_us(kAttribute), "us"});
    m.push_back({"audit.records", static_cast<double>(audit_records_),
                 "count"});
    m.push_back({"audit.append_us", mean_us(kAppend), "us"});
    m.push_back({"audit.drain_ms",
                 total_s[kDrain] * 1e3 / traced_screen_rounds, "ms"});
    m.push_back({"audit.bytes", static_cast<double>(audit_bytes_), "bytes"});
    obs::MetricsRegistry reg;
    obs::PublishThreadPoolMetrics(&reg);
    double busy_ms = 0.0;
    const int workers = util::NumThreads() - 1;
    for (int i = 0; i < workers; ++i) {
      busy_ms += reg.GetGauge("pool/worker_busy_ms",
                              {{"worker", std::to_string(i)}})
                     ->Value();
    }
    const double wall_s = SecondsSince(g_process_start);
    m.push_back({"pool.tasks",
                 static_cast<double>(reg.GetCounter("pool/tasks_total")->Value()),
                 "count"});
    m.push_back({"pool.busy_share",
                 workers > 0 ? busy_ms / 1e3 / (workers * wall_s) : 0.0,
                 "ratio"});
    for (const char* layer : kLayers) {
      m.push_back({std::string(layer) + ".self_share",
                   root_s > 0.0 ? self_s[layer] / root_s : 0.0, "ratio"});
    }
    m.push_back({"trace.overhead_train",
                 train_spans_ * span_cost_s_ / train_s_, "ratio"});
    m.push_back({"trace.overhead_screen", over_screen_.Share(), "ratio"});
    m.push_back({"trace.overhead_triage", over_triage_.Share(), "ratio"});
    m.push_back({"trace.overhead_stream", over_stream_.Share(), "ratio"});
    std::fprintf(stderr, "trace overhead pairs: screen %d, triage %d, "
                 "stream %d\n", over_screen_.pairs, over_triage_.pairs,
                 over_stream_.pairs);

    // Spans go to disk once the run is over.
    const std::string path = args_.out + "/trace-" + w_.name + ".json";
    std::ofstream os(path);
    os << "{\"workload\":\"" << w_.name << "\",\"seed\":" << args_.seed
       << ",\"names\":[";
    for (int i = 0; i < kSpanNameCount; ++i) {
      os << (i ? "," : "") << "[\"" << kSpanInfo[i].name << "\",\""
         << kSpanInfo[i].layer << "\"]";
    }
    os << "],\"spans\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << (i ? ",\n" : "\n") << "[" << s.name << "," << s.parent << ","
         << s.session << "," << s.start_ns << "," << s.end_ns << "]";
    }
    os << "]}\n";
  }

  for (const std::string& f : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu replayed epochs, %d screen rounds, %llu "
               "screened, %llu triaged of a %zu-op sample of %zu flagged, "
               "%llu streamed of %zu sampled ops, F1 %.4f\n",
               w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
               replay_epochs_.size(), screen_rounds_,
               static_cast<unsigned long long>(screen_ops_),
               static_cast<unsigned long long>(triage_ops_),
               triage_items_.size(), flagged_,
               static_cast<unsigned long long>(stream_ops_), events_.size(),
               detect_f1_);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failures_.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].name.c_str(),
                std::isfinite(m[i].value) ? m[i].value : 0.0,
                m[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.self = argv[0];
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lifecycle_bench --workload commenting|location "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  if (!args.probe_model.empty()) return SetupProbe(args);
  Workload w;
  if (!MakeWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Run run(args, std::move(w));
  return run.Main();
}
