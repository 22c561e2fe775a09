// cellbench_driver: runs one scenario cell after another in one process
// (a closed loop: a cell starts when the previous one has finished, and
// every learning round starts when the previous one has finished) and
// writes what it measured as JSON.  run.py builds it, generates the
// scenario from the workload and seed, and turns the JSON into metrics.
//
//   cellbench_driver --spec "<ScenarioSpec text>" [--spec ...]
//       --mode e2e|trace --seconds S --out result.json
//       [--calls-out calls.csv]
//
// Successive cells take the given specs in turn, wrapping around.  Mode
// e2e runs untraced cells through experiments::ScenarioRunner::run,
// exactly as bcl_run does, and times each round from outside through a
// MetricsEmitter.  Mode trace alternates such an untraced cell with a
// traced one that the driver builds itself from the public trainer
// constructors.  The traced trainer gets timing wrappers of every interface
// it accepts (aggregation rule, which the decentralized trainer also runs
// as its agreement round function; attack; codec; the layers of the model
// its factory builds), and each wrapper keeps (start, end, thread) of every
// call in memory.  The calls are attributed to learning rounds after the
// cell ends and written to --calls-out when the run ends.  Nothing inside
// the library is instrumented for this.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aggregation/registry.hpp"
#include "attacks/registry.hpp"
#include "compression/registry.hpp"
#include "experiments/runner.hpp"
#include "learning/centralized.hpp"
#include "learning/cohort.hpp"
#include "learning/decentralized.hpp"
#include "ml/activations.hpp"
#include "ml/conv2d.hpp"
#include "ml/dense.hpp"
#include "ml/pooling.hpp"
#include "ml/reshape.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using bcl::experiments::ScenarioSpec;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// ---------------------------------------------------------------------------
// Call log: one buffer per thread, so recording takes no lock after a
// thread's first call.  Buffers are read only between cells, when the
// trainer has returned and the pool's fork-join has synchronized with every
// worker.

enum Kind : std::uint8_t { kForward, kBackward, kAggregate, kCorrupt, kEncode };
constexpr const char* kKindNames[] = {"forward", "backward", "aggregate",
                                      "corrupt", "encode"};

struct Call {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // forward/backward: layer index; aggregate: inbox rows; encode: dense
  // bytes of the input.
  std::uint64_t a = 0;
  // encode: wire bytes of the output.
  std::uint64_t b = 0;
  std::uint32_t thread = 0;
  Kind kind = kForward;
};

class CallLog {
 public:
  void record(Kind kind, std::int64_t start_ns, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    const std::int64_t end = now_ns();
    Buffer& buffer = local();
    buffer.calls.push_back(Call{start_ns, end, a, b, buffer.thread, kind});
  }

  /// Every call recorded since the last drain, ordered by start time.
  std::vector<Call> drain() {
    std::vector<Call> all;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
      all.insert(all.end(), buffer->calls.begin(), buffer->calls.end());
      buffer->calls.clear();
    }
    std::sort(all.begin(), all.end(), [](const Call& x, const Call& y) {
      return x.start_ns < y.start_ns;
    });
    return all;
  }

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Call> calls;
  };

  Buffer& local() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
      buffers_.back()->calls.reserve(1 << 16);
      buffer = buffers_.back().get();
    }
    return *buffer;
  }

  std::mutex mu_;  // guards buffers_ (the list, not each thread's calls)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

CallLog& call_log() {
  static CallLog log;
  return log;
}

// ---------------------------------------------------------------------------
// Timing wrappers.  Each forwards every virtual of the interface to the
// wrapped object unchanged, so the trainer takes the same code path and
// computes the same numbers (the transparency check in run.py compares the
// traced history with the untraced ScenarioRunner history bit for bit).

class TimedRule final : public bcl::AggregationRule {
 public:
  explicit TimedRule(bcl::AggregationRulePtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  bcl::Vector aggregate(const bcl::VectorList& received,
                        const bcl::AggregationContext& ctx) const override {
    const std::int64_t start = now_ns();
    bcl::Vector out = inner_->aggregate(received, ctx);
    call_log().record(kAggregate, start, received.size());
    return out;
  }
  bcl::Vector aggregate(const bcl::VectorList& received,
                        bcl::AggregationWorkspace& workspace,
                        const bcl::AggregationContext& ctx) const override {
    const std::int64_t start = now_ns();
    bcl::Vector out = inner_->aggregate(received, workspace, ctx);
    call_log().record(kAggregate, start, received.size());
    return out;
  }
  bcl::Vector aggregate(const bcl::GradientBatch& batch,
                        bcl::AggregationWorkspace& workspace,
                        const bcl::AggregationContext& ctx) const override {
    const std::int64_t start = now_ns();
    bcl::Vector out = inner_->aggregate(batch, workspace, ctx);
    call_log().record(kAggregate, start, batch.rows());
    return out;
  }

 private:
  bcl::AggregationRulePtr inner_;
};

class TimedAttack final : public bcl::GradientAttack {
 public:
  explicit TimedAttack(bcl::GradientAttackPtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::optional<bcl::Vector> corrupt(const bcl::Vector& own_gradient,
                                     const bcl::VectorList& honest_gradients,
                                     std::size_t round,
                                     bcl::Rng& rng) const override {
    const std::int64_t start = now_ns();
    auto out = inner_->corrupt(own_gradient, honest_gradients, round, rng);
    call_log().record(kCorrupt, start);
    return out;
  }
  bool poisons_labels() const override { return inner_->poisons_labels(); }
  std::size_t submit_staleness(std::size_t round,
                               std::size_t tau) const override {
    return inner_->submit_staleness(round, tau);
  }

 private:
  bcl::GradientAttackPtr inner_;
};

class TimedCodec final : public bcl::Codec {
 public:
  using bcl::Codec::encode;
  explicit TimedCodec(bcl::CodecPtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  bool identity() const override { return inner_->identity(); }
  bcl::CompressedGradient encode(const double* v, std::size_t dim,
                                 std::uint64_t seed, std::size_t sender,
                                 std::size_t round) const override {
    const std::int64_t start = now_ns();
    bcl::CompressedGradient out = inner_->encode(v, dim, seed, sender, round);
    call_log().record(kEncode, start, bcl::dense_wire_bytes(dim),
                      out.wire_bytes());
    return out;
  }

 private:
  bcl::CodecPtr inner_;
};

class TimedLayer final : public bcl::ml::Layer {
 public:
  TimedLayer(std::unique_ptr<bcl::ml::Layer> inner, std::size_t index)
      : inner_(std::move(inner)), index_(index) {}
  std::string name() const override { return inner_->name(); }
  bcl::ml::Tensor forward(const bcl::ml::Tensor& input) override {
    const std::int64_t start = now_ns();
    bcl::ml::Tensor out = inner_->forward(input);
    call_log().record(kForward, start, index_);
    return out;
  }
  bcl::ml::Tensor backward(const bcl::ml::Tensor& grad_output) override {
    const std::int64_t start = now_ns();
    bcl::ml::Tensor out = inner_->backward(grad_output);
    call_log().record(kBackward, start, index_);
    return out;
  }
  std::size_t parameter_count() const override {
    return inner_->parameter_count();
  }
  void read_parameters(double* dst) const override {
    inner_->read_parameters(dst);
  }
  void write_parameters(const double* src) override {
    inner_->write_parameters(src);
  }
  void read_gradients(double* dst) const override {
    inner_->read_gradients(dst);
  }
  void zero_gradients() override { inner_->zero_gradients(); }
  void initialize(bcl::Rng& rng) override { inner_->initialize(rng); }

 private:
  std::unique_ptr<bcl::ml::Layer> inner_;
  std::size_t index_;
};

// ---------------------------------------------------------------------------
// Scenario materialization for the traced cell.  These mirror what
// ScenarioRunner::run does for a spec (its helpers are private to
// runner.cpp); the transparency check is what proves the two agree.

struct Scale {
  std::size_t rounds = 0;
  std::size_t batch = 0;
  double lr = 0.0;
};

Scale scale_for(const ScenarioSpec& spec) {
  using bcl::experiments::ModelKind;
  Scale s;
  if (spec.model == ModelKind::Mlp) {
    s.rounds = spec.full_scale ? 150 : 60;
    s.batch = spec.full_scale ? 32 : 16;
    s.lr = spec.full_scale ? 0.1 : 0.25;
  } else {
    s.rounds = spec.full_scale ? 400 : 200;
    s.batch = spec.full_scale ? 32 : 16;
    s.lr = 0.05;
  }
  if (spec.rounds > 0) s.rounds = spec.rounds;
  if (spec.batch > 0) s.batch = spec.batch;
  if (spec.lr > 0.0) s.lr = spec.lr;
  return s;
}

bcl::ml::TrainTestSplit make_dataset(const ScenarioSpec& spec) {
  bcl::ml::SyntheticSpec data;
  if (spec.model == bcl::experiments::ModelKind::Mlp) {
    data = bcl::ml::SyntheticSpec::mnist_like(spec.seed);
    data.height = data.width = spec.full_scale ? 28 : 10;
    data.train_per_class = spec.full_scale ? 200 : 60;
    data.test_per_class = spec.full_scale ? 40 : 20;
  } else {
    data = bcl::ml::SyntheticSpec::cifar_like(spec.seed);
    if (!spec.full_scale) {
      data.height = data.width = 16;
      data.train_per_class = 80;
      data.test_per_class = 25;
    }
  }
  return bcl::ml::make_synthetic_dataset(data);
}

/// The model factory of the spec with every layer wrapped in a TimedLayer
/// (same layer order and sizes as ml::make_mlp / ml::make_cifarnet).
bcl::ModelFactory timed_factory(const ScenarioSpec& spec,
                                const bcl::ml::Dataset& train) {
  using namespace bcl::ml;
  const bool full = spec.full_scale;
  if (spec.model == bcl::experiments::ModelKind::Mlp) {
    const std::size_t dim = train.feature_dim();
    const std::size_t h1 = full ? 64 : 16;
    const std::size_t h2 = full ? 32 : 8;
    return [dim, h1, h2] {
      std::vector<std::unique_ptr<Layer>> layers;
      layers.push_back(std::make_unique<Dense>(dim, h1));
      layers.push_back(std::make_unique<ReLU>());
      layers.push_back(std::make_unique<Dense>(h1, h2));
      layers.push_back(std::make_unique<ReLU>());
      layers.push_back(std::make_unique<Dense>(h2, 10));
      Model model;
      for (std::size_t i = 0; i < layers.size(); ++i) {
        model.add(std::make_unique<TimedLayer>(std::move(layers[i]), i));
      }
      return model;
    };
  }
  const std::size_t channels = train.channels;
  const std::size_t side = train.height;
  const std::size_t w1 = full ? 8 : 4;
  const std::size_t w2 = full ? 16 : 8;
  const std::size_t fc = full ? 64 : 24;
  return [channels, side, w1, w2, fc] {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<Reshape>(
        std::vector<std::size_t>{channels, side, side}));
    layers.push_back(std::make_unique<Conv2D>(channels, w1, 5, 2));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<MaxPool2D>(2));
    layers.push_back(std::make_unique<Conv2D>(w1, w2, 5, 2));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<MaxPool2D>(2));
    layers.push_back(std::make_unique<Flatten>());
    layers.push_back(
        std::make_unique<Dense>(w2 * (side / 4) * (side / 4), fc));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<Dense>(fc, 10));
    Model model;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      model.add(std::make_unique<TimedLayer>(std::move(layers[i]), i));
    }
    return model;
  };
}

// ---------------------------------------------------------------------------
// Cell records.

struct Cell {
  std::string spec;
  bool traced = false;
  std::string error;
  double setup_s = 0.0;
  /// Wall seconds of rounds 1..R-1, timed from outside: the gap between
  /// consecutive per-round callbacks.  Round 0 has no observable start
  /// from outside, so it is excluded (its start is still needed to split
  /// setup from round time: see setup_s).
  std::vector<double> round_s;
  std::vector<bcl::RoundMetrics> history;
  /// Honest gradient computations per round (the clients whose samples
  /// the round consumes on behalf of the honest side).
  std::vector<std::size_t> honest_uploaders;
  std::size_t batch = 0;
  std::map<std::string, std::uint64_t> counters;
  // Traced cells only.
  double dataset_s = 0.0;
  double trainer_s = 0.0;
  std::map<std::string, std::vector<double>> layers;
  std::vector<Call> calls;
};

std::vector<std::size_t> honest_uploaders_per_round(const ScenarioSpec& spec,
                                                    std::size_t rounds) {
  const std::size_t honest = spec.clients - spec.byzantine;
  const bcl::CohortConfig cohort = bcl::CohortConfig::parse(spec.cohort);
  std::vector<std::size_t> out(rounds, honest);
  if (!cohort.enabled()) return out;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto members =
        bcl::sample_cohort(cohort, spec.clients, spec.seed, r);
    out[r] = static_cast<std::size_t>(
        std::lower_bound(members.begin(), members.end(), honest) -
        members.begin());
  }
  return out;
}

/// Round windows from the per-round callback times: round r ends at
/// ends[r]; round 0 starts at ends[0] minus the engine's own round-0 time.
void fill_round_times(Cell& cell, const std::vector<double>& ends,
                      double call_s) {
  if (ends.empty() || cell.history.empty()) return;
  const double round0_start = ends[0] - cell.history[0].seconds;
  cell.setup_s = round0_start - call_s;
  for (std::size_t r = 1; r < ends.size(); ++r) {
    cell.round_s.push_back(ends[r] - ends[r - 1]);
  }
}

class RoundClock final : public bcl::experiments::MetricsEmitter {
 public:
  void emit_round(const ScenarioSpec&, const bcl::RoundMetrics&) override {
    ends.push_back(now_s());
  }
  std::vector<double> ends;
};

Cell run_untraced(const ScenarioSpec& spec, bcl::ThreadPool& pool) {
  Cell cell;
  cell.spec = spec.to_string();
  RoundClock clock;
  const double call_s = now_s();
  // A fresh runner per cell: its dataset cache would otherwise hide the
  // dataset generation from every cell but the first.
  bcl::experiments::ScenarioRunner runner(&pool);
  bcl::experiments::ScenarioSummary summary = runner.run(spec, {&clock});
  cell.error = summary.error;
  cell.history = summary.result.history;
  cell.counters = summary.metrics.counters;
  fill_round_times(cell, clock.ends, call_s);
  return cell;
}

/// Splits the traced calls into per-round totals.  Round windows as in
/// fill_round_times; a call belongs to the round its start falls in.
void attribute_calls(Cell& cell, const std::vector<double>& ends,
                     std::size_t top_layer) {
  const std::size_t rounds = ends.size();
  std::vector<std::int64_t> lo(rounds), hi(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    hi[r] = static_cast<std::int64_t>(ends[r] * 1e9);
    lo[r] = r == 0 ? static_cast<std::int64_t>(
                         (ends[0] - cell.history[0].seconds) * 1e9)
                   : hi[r - 1];
  }
  const char* fields[] = {
      "wall_s",      "covered_s",     "agg_covered_s", "forward_busy_s",
      "forward_calls", "backward_busy_s", "grad_calls",  "corrupt_busy_s",
      "corrupt_calls", "encode_busy_s", "encode_calls",  "encode_dense_bytes",
      "encode_wire_bytes", "agg_busy_s", "agg_calls",    "agg_rows"};
  for (const char* f : fields) cell.layers[f].assign(rounds, 0.0);
  auto& L = cell.layers;

  // Union length of [start, end) intervals clipped to [a, b).
  auto union_length = [](std::vector<std::pair<std::int64_t, std::int64_t>>& v,
                         std::int64_t a, std::int64_t b) {
    std::sort(v.begin(), v.end());
    std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [s, e] : v) {
      s = std::max(s, a);
      e = std::min(e, b);
      if (e <= s) continue;
      if (open && s <= cur_hi) {
        cur_hi = std::max(cur_hi, e);
        continue;
      }
      if (open) total += cur_hi - cur_lo;
      cur_lo = s;
      cur_hi = e;
      open = true;
    }
    if (open) total += cur_hi - cur_lo;
    return static_cast<double>(total) * 1e-9;
  };

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> all(rounds),
      agg(rounds);
  for (const Call& c : cell.calls) {
    const auto it = std::upper_bound(hi.begin(), hi.end(), c.start_ns - 1);
    if (it == hi.end()) continue;  // after the last round
    const std::size_t r = static_cast<std::size_t>(it - hi.begin());
    if (c.start_ns < lo[r]) continue;  // setup, before round 0
    const double busy = static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
    all[r].emplace_back(c.start_ns, c.end_ns);
    switch (c.kind) {
      case kForward:
        L["forward_busy_s"][r] += busy;
        L["forward_calls"][r] += 1;
        break;
      case kBackward:
        L["backward_busy_s"][r] += busy;
        // Backward enters the model at its top layer: one call there per
        // gradient computation.
        if (c.a == top_layer) L["grad_calls"][r] += 1;
        break;
      case kCorrupt:
        L["corrupt_busy_s"][r] += busy;
        L["corrupt_calls"][r] += 1;
        break;
      case kEncode:
        L["encode_busy_s"][r] += busy;
        L["encode_calls"][r] += 1;
        L["encode_dense_bytes"][r] += static_cast<double>(c.a);
        L["encode_wire_bytes"][r] += static_cast<double>(c.b);
        break;
      case kAggregate:
        L["agg_busy_s"][r] += busy;
        L["agg_calls"][r] += 1;
        L["agg_rows"][r] += static_cast<double>(c.a);
        agg[r].emplace_back(c.start_ns, c.end_ns);
        break;
    }
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    L["wall_s"][r] = static_cast<double>(hi[r] - lo[r]) * 1e-9;
    L["covered_s"][r] = union_length(all[r], lo[r], hi[r]);
    L["agg_covered_s"][r] = union_length(agg[r], lo[r], hi[r]);
  }
}

/// The traced cell: the trainer ScenarioRunner would build for `spec`, from
/// the public constructors, with timing wrappers handed in.
Cell run_traced(const ScenarioSpec& spec, bcl::ThreadPool& pool) {
  using bcl::experiments::Topology;
  Cell cell;
  cell.spec = spec.to_string();
  cell.traced = true;
  std::vector<double> ends;
  std::size_t top_layer = 0;
  call_log().drain();
  try {
    const double call_s = now_s();
    const bcl::ml::TrainTestSplit data = make_dataset(spec);
    const double data_done_s = now_s();
    cell.dataset_s = data_done_s - call_s;
    const Scale scale = scale_for(spec);

    bcl::TrainingConfig cfg;
    cfg.num_clients = spec.clients;
    cfg.num_byzantine = spec.byzantine;
    cfg.tolerance = spec.tolerance;
    cfg.rounds = scale.rounds;
    cfg.batch_size = scale.batch;
    cfg.rule = std::make_shared<TimedRule>(bcl::make_rule(spec.rule));
    cfg.attack = std::make_shared<TimedAttack>(bcl::make_attack(spec.attack));
    cfg.codec = std::make_shared<TimedCodec>(bcl::make_codec(spec.comp));
    cfg.schedule = bcl::ml::LearningRateSchedule(
        scale.lr, scale.lr / static_cast<double>(scale.rounds));
    cfg.heterogeneity = spec.heterogeneity;
    cfg.honest_delay_probability = spec.delay;
    cfg.faults = bcl::FaultConfig::parse(spec.faults);
    cfg.stale = bcl::StaleConfig::parse(spec.stale);
    cfg.cohort = bcl::CohortConfig::parse(spec.cohort);
    cfg.sketch = spec.sketch;
    cfg.net = bcl::NetConfig::parse(spec.net);
    cfg.net.seed = spec.seed;
    cfg.seed = spec.seed;
    cfg.pool = &pool;
    cfg.eval_max_examples = spec.eval_max;
    cfg.fixed_subrounds = spec.subrounds;
    cfg.on_round = [&ends](const bcl::RoundMetrics&) {
      ends.push_back(now_s());
    };
    bcl::obs::MetricsRegistry registry;
    cfg.metrics = &registry;

    const bcl::ModelFactory factory = timed_factory(spec, data.train);
    top_layer = factory().num_layers() - 1;
    bcl::TrainingResult result;
    if (spec.topology == Topology::Centralized) {
      bcl::CentralizedTrainer trainer(cfg, factory, &data.train, &data.test);
      result = trainer.run();
    } else {
      bcl::DecentralizedTrainer trainer(cfg, factory, &data.train,
                                        &data.test);
      result = trainer.run();
    }
    cell.history = result.history;
    cell.counters = registry.snapshot().counters;
    fill_round_times(cell, ends, call_s);
    cell.trainer_s = cell.setup_s - cell.dataset_s;
  } catch (const std::exception& failure) {
    cell.error = failure.what();
  }
  cell.calls = call_log().drain();
  if (cell.error.empty() && !ends.empty()) {
    attribute_calls(cell, ends, top_layer);
  }
  return cell;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Text that reads back as the same double (Python's json module reads
/// the non-finite spellings too).
std::string num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string array(const std::vector<T>& values, F format) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += format(values[i]);
  }
  return out + "]";
}

std::string history_json(const std::vector<bcl::RoundMetrics>& history) {
  return array(history, [](const bcl::RoundMetrics& m) {
    return "{\"round\":" + std::to_string(m.round) +
           ",\"accuracy\":" + num(m.accuracy) +
           ",\"accuracy_min\":" + num(m.accuracy_min) +
           ",\"accuracy_max\":" + num(m.accuracy_max) +
           ",\"loss\":" + num(m.mean_honest_loss) +
           ",\"lr\":" + num(m.learning_rate) +
           ",\"disagreement\":" + num(m.disagreement) +
           ",\"gradient_diameter\":" + num(m.gradient_diameter) +
           ",\"sim_seconds\":" + num(m.sim_seconds) +
           ",\"bytes_delivered\":" + num(m.bytes_delivered) +
           ",\"bytes_dense\":" + num(m.bytes_dense) +
           ",\"live_clients\":" + num(m.live_clients) +
           ",\"cohort\":" + num(m.cohort) + ",\"shards\":" + num(m.shards) +
           ",\"degraded\":" + num(m.degraded) +
           ",\"engine_seconds\":" + num(m.seconds) + "}";
  });
}

std::string cell_json(const Cell& cell) {
  std::ostringstream os;
  os << "{\"spec\":" << quoted(cell.spec)
     << ",\"traced\":" << (cell.traced ? "true" : "false")
     << ",\"error\":" << quoted(cell.error)
     << ",\"setup_s\":" << num(cell.setup_s)
     << ",\"batch\":" << cell.batch
     << ",\"round_s\":" << array(cell.round_s, num)
     << ",\"honest_uploaders\":"
     << array(cell.honest_uploaders,
              [](std::size_t v) { return std::to_string(v); })
     << ",\"history\":" << history_json(cell.history) << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : cell.counters) {
    os << (first ? "" : ",") << quoted(name) << ":" << value;
    first = false;
  }
  os << "}";
  if (cell.traced) {
    os << ",\"dataset_s\":" << num(cell.dataset_s)
       << ",\"trainer_s\":" << num(cell.trainer_s) << ",\"layers\":{";
    first = true;
    for (const auto& [name, values] : cell.layers) {
      os << (first ? "" : ",") << quoted(name) << ":" << array(values, num);
      first = false;
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// p90 of the round times needs ten samples beyond it: an e2e run times at
// least this many rounds, whatever --seconds says.
constexpr std::size_t kMinRounds = 100;
// No cell starts after this long, so that a run ends within 180 s.
constexpr double kMaxSeconds = 150.0;
// Workers of the trainers' pool (capped at nproc).
constexpr std::size_t kPoolThreads = 4;

struct Args {
  std::vector<std::string> specs;
  std::string mode;
  double seconds = 0.0;
  std::string out;
  std::string calls_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--spec") {
      args.specs.push_back(value);
    } else if (key == "--mode") {
      args.mode = value;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--calls-out") {
      args.calls_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (args.specs.empty() || args.out.empty()) {
    throw std::invalid_argument("--spec and --out are required");
  }
  if (args.mode != "e2e" && args.mode != "trace") {
    throw std::invalid_argument("--mode must be e2e or trace");
  }
  return args;
}

void write_calls(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "cell,kind,thread,start_ns,end_ns,a,b\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const Call& c : cells[i].calls) {
      os << i << ',' << kKindNames[c.kind] << ',' << c.thread << ','
         << c.start_ns << ',' << c.end_ns << ',' << c.a << ',' << c.b << '\n';
    }
  }
  if (!os.flush()) throw std::runtime_error("write failed: " + path);
}

int run(const Args& args) {
  const std::string build_type = CELLBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::cerr << "cellbench_driver: refusing to measure a '" << build_type
              << "' build (NDEBUG " << (ndebug ? "on" : "off")
              << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  std::vector<ScenarioSpec> specs;
  for (const std::string& text : args.specs) {
    specs.push_back(ScenarioSpec::parse(text));
    if (specs.back().trace != "off") {
      throw std::invalid_argument("a spec must not set trace=");
    }
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t pool_threads = std::min(kPoolThreads, nproc);
  bcl::ThreadPool pool(pool_threads);

  std::vector<Cell> cells;
  const double start = now_s();
  std::size_t samples = 0;
  for (std::size_t k = 0;; ++k) {
    const ScenarioSpec& spec = specs[k % specs.size()];
    const Scale scale = scale_for(spec);
    std::vector<Cell> batch;
    if (args.mode == "trace") batch.push_back(run_untraced(spec, pool));
    batch.push_back(args.mode == "trace" ? run_traced(spec, pool)
                                         : run_untraced(spec, pool));
    for (Cell& cell : batch) {
      cell.batch = scale.batch;
      cell.honest_uploaders = honest_uploaders_per_round(spec, scale.rounds);
      if (!cell.traced) samples += cell.round_s.size();
      cells.push_back(std::move(cell));
    }
    const double elapsed = now_s() - start;
    const double per_batch = elapsed / static_cast<double>(k + 1);
    const bool enough = args.mode == "trace" || samples >= kMinRounds;
    if (elapsed > kMaxSeconds) break;
    if (enough && elapsed + 0.5 * per_batch >= args.seconds) break;
  }
  const double measured_s = now_s() - start;

  std::ofstream os(args.out);
  if (!os) throw std::runtime_error("cannot write " + args.out);
  os << "{\"meta\":{\"mode\":" << quoted(args.mode) << ",\"nproc\":" << nproc
     << ",\"pool_threads\":" << pool_threads
     << ",\"build_type\":" << quoted(build_type)
     << ",\"compiler\":" << quoted(CELLBENCH_COMPILER) << "}"
     << ",\"measured_s\":" << num(measured_s)
     << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i == 0 ? "" : ",\n") << cell_json(cells[i]);
  }
  os << "]}\n";
  if (!os.flush()) throw std::runtime_error("write failed: " + args.out);
  if (!args.calls_out.empty()) write_calls(args.calls_out, cells);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& failure) {
    std::cerr << "cellbench_driver: " << failure.what() << "\n";
    return 2;
  }
}
