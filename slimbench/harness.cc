#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "serve/router.h"
#include "synth/simulators.h"
#include "util/random.h"

namespace slimbench {

using slimfast::Dataset;
using slimfast::ObservationBatch;
using slimfast::Result;

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  int64_t rank = static_cast<int64_t>(std::ceil(p * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples->size()));
  return (*samples)[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

bool PercentileHasTail(int64_t n, double p, int64_t min_tail) {
  if (n <= 0) return false;
  const int64_t rank =
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  return n - rank >= min_tail;
}

void RunOpenLoop(int64_t n, int64_t start_ns, int64_t interval_ns,
                 const std::function<int64_t()>& now,
                 const std::function<void(int64_t)>& wait_until,
                 const std::function<bool(int64_t)>& call,
                 OpenLoopResult* out) {
  out->latency_ns.resize(static_cast<size_t>(n));
  out->lateness_ns.resize(static_cast<size_t>(n));
  out->failed = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t due = start_ns + i * interval_ns;
    int64_t begin = now();
    if (begin < due) {
      wait_until(due);
      begin = now();
    }
    if (!call(i)) ++out->failed;
    const int64_t end = now();
    out->lateness_ns[static_cast<size_t>(i)] = static_cast<double>(begin - due);
    out->latency_ns[static_cast<size_t>(i)] = static_cast<double>(end - due);
  }
}

void WaitUntil(int64_t deadline_ns) {
  // Sleep through long gaps so an idle reader leaves its core to the
  // service; busy-wait the last stretch, which a timer wake-up or a yield
  // would overshoot (the overshoot would count as request latency).
  constexpr int64_t kSpinNs = 150'000;
  const int64_t now = NowNs();
  if (deadline_ns - now > 2 * kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

// ---------------------------------------------------------------------------

void Tracer::Begin(const char* name) {
  if (!enabled_) return;
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = name;
  span.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void Tracer::End() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

namespace {

/// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Clip children to the parent's interval before taking the union.
      std::vector<std::pair<int64_t, int64_t>> clipped;
      for (const auto& [cs, ce] : it->second) {
        const int64_t a = std::max(cs, s.start_ns);
        const int64_t b = std::min(ce, s.end_ns);
        if (b > a) clipped.push_back({a, b});
      }
      covered = UnionLength(std::move(clipped));
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> TotalSeconds(const std::vector<Span>& spans) {
  std::map<std::string, double> total;
  for (const Span& s : spans) {
    total[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"name\":" + JsonString(s.name) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
  }
  out += "]\n";
  return out;
}

// ---------------------------------------------------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------

Relabeling MakeRelabeling(int32_t num_sources,
                          const std::vector<int32_t>& object_class,
                          uint64_t seed) {
  slimfast::Rng rng(seed);
  Relabeling r;
  r.source.resize(static_cast<size_t>(num_sources));
  for (int32_t s = 0; s < num_sources; ++s) r.source[static_cast<size_t>(s)] = s;
  rng.Shuffle(&r.source);
  std::map<int32_t, std::vector<int32_t>> members;
  for (size_t o = 0; o < object_class.size(); ++o) {
    members[object_class[o]].push_back(static_cast<int32_t>(o));
  }
  r.object.resize(object_class.size());
  for (auto& [cls, ids] : members) {
    std::vector<int32_t> image = ids;
    rng.Shuffle(&image);
    for (size_t i = 0; i < ids.size(); ++i) {
      r.object[static_cast<size_t>(ids[i])] = image[i];
    }
  }
  return r;
}

Result<Dataset> RelabelDataset(const Dataset& d, const Relabeling& r,
                               uint64_t seed) {
  std::vector<slimfast::Observation> claims = d.observations();
  slimfast::Rng rng(seed);
  rng.Shuffle(&claims);
  slimfast::DatasetBuilder builder(d.name(), d.num_sources(), d.num_objects(),
                                   d.num_values());
  for (const slimfast::Observation& o : claims) {
    SLIMFAST_RETURN_NOT_OK(builder.AddObservation(
        r.object[static_cast<size_t>(o.object)],
        r.source[static_cast<size_t>(o.source)], o.value));
  }
  for (slimfast::ObjectId o : d.ObjectsWithTruth()) {
    SLIMFAST_RETURN_NOT_OK(
        builder.SetTruth(r.object[static_cast<size_t>(o)], d.Truth(o)));
  }
  const slimfast::FeatureSpace& from = d.features();
  slimfast::FeatureSpace to(d.num_sources());
  for (slimfast::FeatureId k = 0; k < from.num_features(); ++k) {
    to.RegisterFeature(from.FeatureName(k));
  }
  for (int32_t s = 0; s < from.num_sources(); ++s) {
    for (slimfast::FeatureId k : from.FeaturesOf(s)) {
      SLIMFAST_RETURN_NOT_OK(to.SetFeature(r.source[static_cast<size_t>(s)], k));
    }
  }
  *builder.mutable_features() = std::move(to);
  return std::move(builder).Build();
}

slimfast::TrainTestSplit RelabelSplit(const slimfast::TrainTestSplit& split,
                                      const Relabeling& r) {
  slimfast::TrainTestSplit out;
  out.is_train.assign(r.object.size(), 0);
  for (slimfast::ObjectId o : split.train_objects) {
    out.train_objects.push_back(r.object[static_cast<size_t>(o)]);
    out.is_train[static_cast<size_t>(out.train_objects.back())] = 1;
  }
  for (slimfast::ObjectId o : split.test_objects) {
    out.test_objects.push_back(r.object[static_cast<size_t>(o)]);
  }
  std::sort(out.train_objects.begin(), out.train_objects.end());
  std::sort(out.test_objects.begin(), out.test_objects.end());
  return out;
}

ObservationBatch RelabelBatch(const ObservationBatch& batch,
                              const Relabeling& r, uint64_t seed) {
  ObservationBatch out;
  for (const slimfast::Observation& o : batch.observations) {
    out.observations.push_back({r.object[static_cast<size_t>(o.object)],
                                r.source[static_cast<size_t>(o.source)],
                                o.value});
  }
  for (const slimfast::TruthLabel& t : batch.truths) {
    out.truths.push_back({r.object[static_cast<size_t>(t.object)], t.value});
  }
  slimfast::Rng rng(seed);
  rng.Shuffle(&out.observations);
  rng.Shuffle(&out.truths);
  return out;
}

bool ShapeFor(const std::string& workload, WorkloadShape* shape) {
  WorkloadShape s;
  s.name = workload;
  if (workload == "batch_fit") {
    // The service phases stream the cheapest of the four fitted instances.
    s.primary = Primary::kFit;
    s.fit_simulators = {"stocks", "demos", "crowd", "genomics"};
    s.serve_simulator = "stocks";
    s.streams_per_round = 2;
  } else if (workload == "stream_commit") {
    // Relearn every 30 of the 240 COMMITs: eight relearns per stream, as
    // `slimfast_cli replay` relearns once per each of its default 8 chunks.
    s.primary = Primary::kStream;
    s.fit_simulators = {"crowd"};
    s.serve_simulator = "crowd";
    s.relearn_every = 30;
    s.fsync_every_batch = true;
  } else if (workload == "query_mix") {
    // Fits crowd rather than its served stocks instance: a stocks fit takes
    // 0.07 s, mostly allocation in compile, and its time swung by 0.1-0.27
    // (IQR/median) between runs.
    s.primary = Primary::kRead;
    s.fit_simulators = {"crowd"};
    s.serve_simulator = "stocks";
  } else {
    return false;
  }
  *shape = std::move(s);
  return true;
}

namespace {

/// Independent sub-seeds of one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Every workload seed runs the same instances, renamed: the generator
/// seed and the label split are fixed, and the workload seed only picks
/// the renaming and the claim order. The amount of work (EM/ERM branch,
/// iterations, per-shard load) is then the same for every seed, so the
/// spread between runs measures the machine rather than the draw.
constexpr uint64_t kInstanceSeed = 20170514;

/// The fixed instance of `simulator` and its fixed label split.
Result<FitInput> MakeBaseInput(const std::string& simulator) {
  SLIMFAST_ASSIGN_OR_RETURN(
      slimfast::SyntheticDataset sim,
      slimfast::MakeSimulatorByName(simulator, kInstanceSeed));
  FitInput input;
  input.simulator = simulator;
  input.dataset = std::move(sim.dataset);
  // 10% labels, as the paper fits its simulators.
  slimfast::Rng rng(kInstanceSeed);
  SLIMFAST_ASSIGN_OR_RETURN(input.split,
                            slimfast::MakeSplit(input.dataset, 0.1, &rng));
  return input;
}

Result<FitInput> Rename(const FitInput& base, const Relabeling& r,
                        uint64_t seed) {
  FitInput input;
  input.simulator = base.simulator;
  SLIMFAST_ASSIGN_OR_RETURN(input.dataset,
                            RelabelDataset(base.dataset, r, seed));
  input.split = RelabelSplit(base.split, r);
  return input;
}

/// Zipf-skewed reads over a fixed permutation of the base instance's
/// objects, kPosteriorShare of them POSTERIOR.
std::vector<std::vector<ReadRequest>> MakeReads(int32_t num_objects) {
  slimfast::Rng rng(kInstanceSeed);
  std::vector<int32_t> rank_to_object(static_cast<size_t>(num_objects));
  for (int32_t i = 0; i < num_objects; ++i) {
    rank_to_object[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&rank_to_object);
  std::vector<double> cdf(static_cast<size_t>(num_objects));
  double total = 0.0;
  for (int32_t r = 0; r < num_objects; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<std::vector<ReadRequest>> reads(static_cast<size_t>(kReaders));
  for (auto& seq : reads) {
    seq.resize(static_cast<size_t>(kRequestsPerReader));
    for (ReadRequest& req : seq) {
      const double u = rng.Uniform() * total;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      req.object = rank_to_object[std::min(rank, cdf.size() - 1)];
      req.posterior = rng.Uniform() < kPosteriorShare;
    }
  }
  return reads;
}

}  // namespace

Result<WorkloadInputs> GenerateInputs(const WorkloadShape& shape,
                                      uint64_t seed) {
  WorkloadInputs inputs;
  uint64_t salt = 0;
  for (const std::string& sim : shape.fit_simulators) {
    SLIMFAST_ASSIGN_OR_RETURN(FitInput base, MakeBaseInput(sim));
    const Relabeling r = MakeRelabeling(
        base.dataset.num_sources(),
        std::vector<int32_t>(static_cast<size_t>(base.dataset.num_objects())),
        SubSeed(seed, ++salt));
    SLIMFAST_ASSIGN_OR_RETURN(FitInput fit,
                              Rename(base, r, SubSeed(seed, ++salt)));
    inputs.fits.push_back(std::move(fit));
  }

  // The service input keeps every object on its shard, so each shard sees
  // the same (renamed) sub-stream whatever the seed.
  SLIMFAST_ASSIGN_OR_RETURN(FitInput base,
                            MakeBaseInput(shape.serve_simulator));
  const slimfast::ShardRouter router(kShards);
  std::vector<int32_t> shard_of(
      static_cast<size_t>(base.dataset.num_objects()));
  for (size_t o = 0; o < shard_of.size(); ++o) {
    shard_of[o] = router.ShardOf(static_cast<slimfast::ObjectId>(o));
  }
  const Relabeling r = MakeRelabeling(base.dataset.num_sources(), shard_of,
                                      SubSeed(seed, ++salt));
  SLIMFAST_ASSIGN_OR_RETURN(FitInput served,
                            Rename(base, r, SubSeed(seed, ++salt)));
  ServeInput& serve = inputs.serve;
  serve.simulator = served.simulator;
  serve.split = std::move(served.split);
  serve.dataset = std::move(served.dataset);
  // query_mix preloads the first half of the claims as relearn_every
  // batches, so the preload ends on a relearn of the flat policy, and
  // streams the second half; the other workloads stream all of them.
  const bool preload = shape.primary == Primary::kRead;
  std::vector<ObservationBatch> chunks = slimfast::ChunkDatasetForReplay(
      base.dataset, kStreamCommits * (preload ? 2 : 1));
  if (preload) serve.preload.resize(static_cast<size_t>(shape.relearn_every));
  const size_t per_preload_batch =
      static_cast<size_t>(kStreamCommits / shape.relearn_every);
  for (size_t i = 0; i < chunks.size(); ++i) {
    // Only train-split truths reach the service; test truths stay with the
    // benchmark for scoring.
    std::erase_if(chunks[i].truths, [&](const slimfast::TruthLabel& t) {
      return !base.split.IsTrain(t.object);
    });
    ObservationBatch renamed =
        RelabelBatch(chunks[i], r, SubSeed(seed, ++salt));
    if (preload && static_cast<int32_t>(i) < kStreamCommits) {
      ObservationBatch& p = serve.preload[i / per_preload_batch];
      p.observations.insert(p.observations.end(), renamed.observations.begin(),
                            renamed.observations.end());
      p.truths.insert(p.truths.end(), renamed.truths.begin(),
                      renamed.truths.end());
    } else {
      serve.stream.push_back(std::move(renamed));
    }
  }
  serve.reads = MakeReads(base.dataset.num_objects());
  for (auto& seq : serve.reads) {
    for (ReadRequest& req : seq) {
      req.object = r.object[static_cast<size_t>(req.object)];
    }
  }
  return inputs;
}

namespace {

void Put(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutDataset(std::string* out, const Dataset& d) {
  Put(out, d.num_sources());
  Put(out, d.num_objects());
  Put(out, d.num_values());
  for (const slimfast::Observation& o : d.observations()) {
    Put(out, o.object);
    Put(out, o.source);
    Put(out, o.value);
  }
  for (int32_t o = 0; o < d.num_objects(); ++o) {
    Put(out, d.HasTruth(o) ? d.Truth(o) : -1);
  }
  const slimfast::FeatureSpace& f = d.features();
  for (int32_t s = 0; s < f.num_sources(); ++s) {
    for (slimfast::FeatureId k : f.FeaturesOf(s)) {
      out->append(f.FeatureName(k));
      Put(out, s);
    }
  }
}

void PutBatch(std::string* out, const ObservationBatch& b) {
  Put(out, static_cast<int64_t>(b.observations.size()));
  for (const slimfast::Observation& o : b.observations) {
    Put(out, o.object);
    Put(out, o.source);
    Put(out, o.value);
  }
  Put(out, static_cast<int64_t>(b.truths.size()));
  for (const slimfast::TruthLabel& t : b.truths) {
    Put(out, t.object);
    Put(out, t.value);
  }
}

}  // namespace

std::string SerializeInputs(const WorkloadInputs& inputs) {
  std::string out;
  for (const FitInput& fit : inputs.fits) {
    out.append(fit.simulator);
    PutDataset(&out, fit.dataset);
    for (slimfast::ObjectId o : fit.split.train_objects) Put(&out, o);
  }
  const ServeInput& serve = inputs.serve;
  out.append(serve.simulator);
  PutDataset(&out, serve.dataset);
  for (slimfast::ObjectId o : serve.split.train_objects) Put(&out, o);
  for (const ObservationBatch& b : serve.preload) PutBatch(&out, b);
  for (const ObservationBatch& b : serve.stream) PutBatch(&out, b);
  for (const auto& seq : serve.reads) {
    for (const ReadRequest& r : seq) Put(&out, r.object * 2 + r.posterior);
  }
  return out;
}

}  // namespace slimbench
