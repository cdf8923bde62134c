#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <unordered_set>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

void Windowed::BeginPhase(double phase_s) {
  std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(phase_s / window_s_)));
  phase_window_s_ = phase_s / static_cast<double>(n);
  phase_first_ = windows_.size();
  windows_.resize(windows_.size() + n, Window{phase_window_s_, {}});
}

void Windowed::Add(double t_s, double value) {
  if (t_s < 0.0) return;
  std::size_t w = phase_first_ + WindowOf(t_s);
  if (w < windows_.size()) windows_[w].samples.push_back(value);
}

std::vector<double> Windowed::Percentiles(double p) const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    if (!w.samples.empty()) {
      out.push_back(perfbench::Percentile(w.samples, p));
    }
  }
  return out;
}

std::vector<double> Windowed::Rates() const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    out.push_back(static_cast<double>(w.samples.size()) / w.seconds);
  }
  return out;
}

std::vector<double> Windowed::Throughputs() const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    double busy = 0.0;
    for (double v : w.samples) busy += v;
    if (busy > 0.0) {
      out.push_back(static_cast<double>(w.samples.size()) * 1000.0 / busy);
    }
  }
  return out;
}

std::size_t Windowed::count() const {
  std::size_t n = 0;
  for (const Window& w : windows_) n += w.samples.size();
  return n;
}

double FastWindow(const std::vector<double>& per_window,
                  bool lower_is_better) {
  return Percentile(per_window, lower_is_better ? 100.0 * kFastShare
                                                : 100.0 * (1.0 - kFastShare));
}

void PinThread(pid_t tid, std::size_t slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot % cpus.size()], &one);
  (void)sched_setaffinity(tid, sizeof(one), &one);
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(
        static_cast<pid_t>(std::atol(entry.path().filename().c_str())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

namespace {

float L2Sq(const float* a, const float* b, std::size_t dim) {
  // Eight partial sums so the compiler can vectorize without reassociating.
  float acc[8] = {};
  std::size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      float d = a[j + l] - b[j + l];
      acc[l] += d * d;
    }
  }
  float sum = 0.0f;
  for (float v : acc) sum += v;
  for (; j < dim; ++j) {
    float d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

}  // namespace

std::vector<vdb::VectorId> ExactTopK(const vdb::FloatMatrix& data,
                                     const std::vector<vdb::VectorId>& rows,
                                     const float* query, std::size_t k) {
  std::vector<std::pair<float, vdb::VectorId>> best;
  best.reserve(k + 1);
  auto offer = [&](vdb::VectorId id) {
    float d = L2Sq(query, data.row(id), data.cols());
    if (best.size() == k && d >= best.back().first) return;
    auto pos = std::upper_bound(
        best.begin(), best.end(), std::make_pair(d, id));
    best.insert(pos, {d, id});
    if (best.size() > k) best.pop_back();
  };
  if (rows.empty()) {
    for (std::size_t i = 0; i < data.rows(); ++i) offer(i);
  } else {
    for (vdb::VectorId id : rows) offer(id);
  }
  std::vector<vdb::VectorId> ids;
  ids.reserve(best.size());
  for (const auto& [d, id] : best) ids.push_back(id);
  return ids;
}

std::string CheckReply(const std::vector<vdb::Neighbor>& rows,
                       std::size_t want,
                       const std::function<bool(vdb::VectorId)>& is_valid) {
  if (rows.size() != want) {
    return "expected " + std::to_string(want) + " rows, got " +
           std::to_string(rows.size());
  }
  std::unordered_set<vdb::VectorId> seen;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!seen.insert(rows[i].id).second) {
      return "duplicate id " + std::to_string(rows[i].id);
    }
    if (i > 0 && rows[i].dist < rows[i - 1].dist) {
      return "distances decrease at row " + std::to_string(i);
    }
    if (!is_valid(rows[i].id)) {
      return "id " + std::to_string(rows[i].id) + " is not a valid answer";
    }
  }
  return "";
}

double Recall(const std::vector<vdb::Neighbor>& rows,
              const std::vector<vdb::VectorId>& truth) {
  if (truth.empty()) return 1.0;
  std::size_t hits = 0;
  for (vdb::VectorId id : truth) {
    auto same = [id](const vdb::Neighbor& nb) { return nb.id == id; };
    if (std::find_if(rows.begin(), rows.end(), same) != rows.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

std::string VectorLiteral(const float* v, std::size_t dim) {
  std::string out = "[";
  char buf[32];
  for (std::size_t j = 0; j < dim; ++j) {
    std::snprintf(buf, sizeof(buf), j ? ", %.9g" : "%.9g",
                  static_cast<double>(v[j]));
    out += buf;
  }
  return out + "]";
}

std::vector<std::pair<std::string, double>> SpanLog::LayerSelfP50(
    double* root_p50_us) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = Duration(i);
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
  }
  // layer -> query -> self time; roots give the client-observed time.
  std::map<std::string, std::map<std::uint32_t, double>> by_layer;
  std::vector<double> roots;
  std::map<std::uint32_t, bool> queries;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::string name = spans_[i].name;
    std::string layer = name.substr(0, name.find('.'));
    by_layer[layer][spans_[i].query] += self[i];
    queries[spans_[i].query] = true;
    if (spans_[i].parent < 0) roots.push_back(Duration(i));
  }
  *root_p50_us = Median(roots);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, per_query] : by_layer) {
    std::vector<double> values;
    values.reserve(queries.size());
    // A query in which the layer recorded no span spent no time there.
    for (const auto& [q, unused] : queries) {
      auto it = per_query.find(q);
      values.push_back(it == per_query.end() ? 0.0 : it->second);
    }
    out.emplace_back(layer, Median(values));
  }
  return out;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_us\tend_us\tparent\tquery\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%.3f\t%.3f\t%d\t%u\n", s.name, s.start_us, s.end_us,
                 s.parent, s.query);
  }
  return std::fclose(f) == 0;
}

void AddTraceMetrics(const SpanLog& log, const std::vector<double>& untraced,
                     const Args& args, Report* r) {
  double root_p50 = 0.0;
  double accounted = 0.0;
  for (const auto& [layer, self] : log.LayerSelfP50(&root_p50)) {
    r->Add(layer + ".self_us", self, "us");
    accounted += self;
  }
  double base = Median(untraced);
  r->Add("trace.client_p50_us", root_p50, "us");
  r->Add("trace.unaccounted_us", root_p50 - accounted, "us");
  r->Add("trace.overhead_pct", (root_p50 - base) / base * 100.0, "%");
  if (!args.spans_path.empty() && !log.WriteTsv(args.spans_path)) {
    r->Fail("cannot write " + args.spans_path);
  }
}

void AddIndexStats(const vdb::SearchStats& stats, std::uint64_t calls,
                   double search_us, double l2_ns, Report* r) {
  double n = static_cast<double>(calls);
  double ndis = static_cast<double>(stats.distance_comps) / n;
  r->Add("index.search_us", search_us, "us");
  r->Add("index.ndis_per_query", ndis, "count");
  r->Add("index.hops_per_query", static_cast<double>(stats.hops) / n,
         "count");
  r->Add("index.code_comps_per_query",
         static_cast<double>(stats.code_comps) / n, "count");
  r->Add("index.dist_share", ndis * l2_ns / (search_us * 1000.0), "share");
}

}  // namespace perfbench
