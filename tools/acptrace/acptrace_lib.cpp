#include "acptrace/acptrace_lib.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"

namespace acp::tracecli {

// ---- JSON parser -------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw PreconditionError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': return parse_literal_bool();
      case 'n': return parse_literal_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The writers in this repo never emit \u escapes for anything the
          // analyzer compares; decode to '?' rather than carry ICU here.
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          pos_ += 4;
          out += '?';
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  JsonValue parse_literal_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue parse_literal_null() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string JsonValue::str_or(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string : fallback;
}

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse_document(); }

// ---- Trace loading -------------------------------------------------------------

TraceData load_trace(std::istream& in) {
  TraceData data;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    data.events.push_back(obs::parse_trace_line(line));
    ++data.lines;
    if (data.events.back().str("type") == "trace_truncated") data.truncated = true;
  }
  return data;
}

TraceData load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PreconditionError("cannot open trace file: " + path);
  return load_trace(in);
}

// ---- Shared per-request reconstruction ----------------------------------------

namespace {

/// (run, req) — probe and request ids restart across runs in one file.
using ReqKey = std::pair<std::uint64_t, std::uint64_t>;

ReqKey req_key(const obs::ParsedTraceEvent& ev) {
  return {static_cast<std::uint64_t>(ev.num("run")), static_cast<std::uint64_t>(ev.num("req"))};
}

struct ProbeInfo {
  std::uint64_t parent = 0;
  std::uint64_t node = 0;
  std::uint64_t hop = 0;
  std::uint64_t path = 0;
  double spawn_t = 0.0;
  double end_t = 0.0;       ///< last hop/terminal event time
  bool returned = false;
  std::uint64_t retries = 0;
  std::int64_t component = -1;        ///< component being probed for (-1 at the root)
  std::int64_t moved_component = -1;  ///< cause of a component_moved rejection
  std::string reason;                 ///< probe_rejected reason, else empty
  // Disposition: what ended this probe's life.
  enum class End { kNone, kFork, kReturned, kRejected } end = End::kNone;
};

struct ReqInfo {
  bool accepted = false;
  bool terminal = false;    ///< composition_confirmed/failed seen
  bool confirmed = false;
  bool timed_out = false;
  double accepted_t = 0.0;
  double end_t = 0.0;
  double setup_s = 0.0;
  std::uint64_t deputy = 0;
  std::uint64_t paths = 0;
  double alpha = 0.0;
  std::uint64_t session = 0;  ///< composition_confirmed session id; 0 = none
  double phi = 0.0;
  std::uint64_t spawns = 0, forks = 0, returns = 0, rejects = 0;
  std::uint64_t retries = 0;  ///< probe_retry spans (retransmissions, not dispositions)
  std::uint64_t terminals = 0;
  double timeout_outstanding = 0.0;
  std::map<std::string, std::uint64_t> reject_reasons;
  std::map<std::uint64_t, ProbeInfo> probes;
};

const char* disposition_name(ProbeInfo::End e) {
  switch (e) {
    case ProbeInfo::End::kFork: return "forked";
    case ProbeInfo::End::kReturned: return "returned";
    case ProbeInfo::End::kRejected: return "rejected";
    case ProbeInfo::End::kNone: break;
  }
  return "none";
}

/// Walks the stream once, building per-request state and (optionally)
/// collecting invariant violations. analyze() and validate() share this so
/// they can never disagree about what a trace means.
std::map<ReqKey, ReqInfo> reconstruct(const TraceData& trace, std::vector<Violation>* out) {
  std::map<ReqKey, ReqInfo> reqs;
  // Probe ids are unique per run (per tracer/protocol instance).
  std::map<std::uint64_t, std::map<std::uint64_t, ReqKey>> probe_owner;  // run → probe → req

  const auto violation = [&](const std::string& what) {
    if (out != nullptr) out->push_back({what});
  };

  for (const auto& ev : trace.events) {
    const std::string& type = ev.str("type");
    const auto run = static_cast<std::uint64_t>(ev.num("run"));

    if (type == "request_accepted") {
      ReqInfo& r = reqs[req_key(ev)];
      if (r.accepted) {
        violation("run " + std::to_string(run) + " req " + std::to_string(ev.num("req")) +
                  ": duplicate request_accepted");
      }
      r.accepted = true;
      r.accepted_t = ev.num("t");
      r.deputy = static_cast<std::uint64_t>(ev.num("deputy"));
      r.paths = static_cast<std::uint64_t>(ev.num("paths"));
      r.alpha = ev.num("alpha");
      continue;
    }

    if (type == "probe_spawned") {
      const auto id = static_cast<std::uint64_t>(ev.num("probe"));
      const auto parent = static_cast<std::uint64_t>(ev.num("parent"));
      auto& owners = probe_owner[run];
      if (owners.count(id) != 0) {
        violation("run " + std::to_string(run) + ": probe " + std::to_string(id) +
                  " spawned twice");
        continue;
      }
      if (parent != 0 && owners.count(parent) == 0) {
        violation("run " + std::to_string(run) + ": probe " + std::to_string(id) +
                  " spawned by unknown parent " + std::to_string(parent));
      }
      owners[id] = req_key(ev);
      ReqInfo& r = reqs[req_key(ev)];
      ++r.spawns;
      ProbeInfo& p = r.probes[id];
      p.parent = parent;
      p.node = static_cast<std::uint64_t>(ev.num("node"));
      p.hop = static_cast<std::uint64_t>(ev.num("hop"));
      p.path = static_cast<std::uint64_t>(ev.num("path"));
      if (ev.has("component")) p.component = static_cast<std::int64_t>(ev.num("component"));
      p.spawn_t = ev.num("t");
      p.end_t = p.spawn_t;
      continue;
    }

    if (type == "probe_hop" || type == "probe_rejected" || type == "probe_returned") {
      const auto id = static_cast<std::uint64_t>(ev.num("probe"));
      auto& owners = probe_owner[run];
      const auto owner = owners.find(id);
      if (owner == owners.end()) {
        violation("run " + std::to_string(run) + ": " + type + " references never-spawned probe " +
                  std::to_string(id));
        continue;
      }
      ReqInfo& r = reqs[owner->second];
      ProbeInfo& p = r.probes[id];
      p.end_t = ev.num("t");

      ProbeInfo::End end = ProbeInfo::End::kNone;
      if (type == "probe_hop" && ev.num("spawned") > 0.0) end = ProbeInfo::End::kFork;
      if (type == "probe_returned") end = ProbeInfo::End::kReturned;
      if (type == "probe_rejected") end = ProbeInfo::End::kRejected;
      if (end == ProbeInfo::End::kNone) continue;  // hop that died childless; reject follows

      if (p.end != ProbeInfo::End::kNone) {
        violation("run " + std::to_string(run) + ": probe " + std::to_string(id) +
                  " already " + disposition_name(p.end) + ", then " + type);
        continue;
      }
      p.end = end;
      switch (end) {
        case ProbeInfo::End::kFork: ++r.forks; break;
        case ProbeInfo::End::kReturned:
          ++r.returns;
          p.returned = true;
          break;
        case ProbeInfo::End::kRejected:
          ++r.rejects;
          p.reason = ev.has("reason") ? ev.str("reason") : "?";
          if (ev.has("component")) {
            p.moved_component = static_cast<std::int64_t>(ev.num("component"));
          }
          ++r.reject_reasons[p.reason];
          break;
        case ProbeInfo::End::kNone: break;
      }
      continue;
    }

    if (type == "probe_retry") {
      // A lost transmission being retransmitted: the probe is still the SAME
      // in-flight probe, so a retry never counts as a second disposition —
      // it only extends the probe's lifetime. It must reference a live
      // (spawned, undisposed) probe.
      const auto id = static_cast<std::uint64_t>(ev.num("probe"));
      auto& owners = probe_owner[run];
      const auto owner = owners.find(id);
      if (owner == owners.end()) {
        violation("run " + std::to_string(run) + ": probe_retry references never-spawned probe " +
                  std::to_string(id));
        continue;
      }
      ReqInfo& r = reqs[owner->second];
      ProbeInfo& p = r.probes[id];
      if (p.end != ProbeInfo::End::kNone) {
        violation("run " + std::to_string(run) + ": probe " + std::to_string(id) + " already " +
                  disposition_name(p.end) + ", then probe_retry");
        continue;
      }
      p.end_t = ev.num("t");
      ++p.retries;
      ++r.retries;
      continue;
    }

    if (type == "probe_timeout") {
      ReqInfo& r = reqs[req_key(ev)];
      r.timed_out = true;
      r.timeout_outstanding += ev.num("outstanding");
      continue;
    }

    if (type == "composition_confirmed" || type == "composition_failed") {
      ReqInfo& r = reqs[req_key(ev)];
      if (!r.accepted) {
        violation("run " + std::to_string(run) + " req " + std::to_string(ev.num("req")) +
                  ": " + type + " without request_accepted");
      }
      ++r.terminals;
      if (r.terminals > 1) {
        violation("run " + std::to_string(run) + " req " + std::to_string(ev.num("req")) +
                  ": second terminal event (" + type + ")");
      }
      r.terminal = true;
      r.confirmed = type == "composition_confirmed";
      r.end_t = ev.num("t");
      r.setup_s = ev.has("setup_s") ? ev.num("setup_s") : r.end_t - r.accepted_t;
      if (r.confirmed) {
        r.session = static_cast<std::uint64_t>(ev.num("session"));
        r.phi = ev.num("phi");
      }
      continue;
    }

    // run_started, trace_header, trace_truncated, transients_cancelled,
    // component_migrated: no per-probe accounting.
  }

  if (out != nullptr) {
    for (const auto& [key, r] : reqs) {
      const std::string who =
          "run " + std::to_string(key.first) + " req " + std::to_string(key.second);
      // A truncated trace legitimately cuts terminals/balance short; the
      // reference checks above still apply in full.
      if (trace.truncated) continue;
      if (r.accepted && !r.terminal) violation(who + ": no composition_confirmed/failed");
      const std::uint64_t settled =
          r.forks + r.returns + r.rejects + static_cast<std::uint64_t>(r.timeout_outstanding);
      if (r.spawns != settled) {
        violation(who + ": probe accounting imbalance: spawned " + std::to_string(r.spawns) +
                  " != forked " + std::to_string(r.forks) + " + returned " +
                  std::to_string(r.returns) + " + rejected " + std::to_string(r.rejects) +
                  " + outstanding-at-timeout " +
                  std::to_string(static_cast<std::uint64_t>(r.timeout_outstanding)));
      }
    }
  }
  return reqs;
}

}  // namespace

// ---- analyze -------------------------------------------------------------------

Analysis analyze(const TraceData& trace, std::size_t top_k) {
  const std::map<ReqKey, ReqInfo> reqs = reconstruct(trace, nullptr);

  Analysis a;
  a.truncated = trace.truncated;
  double setup_sum = 0.0;
  std::vector<RequestPath> paths;
  for (const auto& [key, r] : reqs) {
    if (!r.accepted || !r.terminal) continue;
    ++a.requests;
    if (r.confirmed) ++a.confirmed;
    else ++a.failed;
    if (r.timed_out) ++a.timeouts;
    a.probes_spawned += r.spawns;
    a.probe_retries += r.retries;
    setup_sum += r.setup_s;
    a.max_setup_s = std::max(a.max_setup_s, r.setup_s);

    RequestPath rp;
    rp.run = key.first;
    rp.req = key.second;
    rp.confirmed = r.confirmed;
    rp.timed_out = r.timed_out;
    rp.accepted_t = r.accepted_t;
    rp.end_t = r.end_t;
    rp.setup_s = r.setup_s;
    rp.probes_spawned = r.spawns;

    // Critical path: the latest-completing returned probe is the one the
    // deputy's deadline/merge actually waited on; fall back to the
    // latest-ending probe when nothing returned.
    std::uint64_t leaf = 0;
    bool leaf_returned = false;
    double leaf_t = -1.0;
    for (const auto& [id, p] : r.probes) {
      const bool better = (p.returned && !leaf_returned) ||
                          (p.returned == leaf_returned && p.end_t > leaf_t);
      if (leaf == 0 || better) {
        leaf = id;
        leaf_returned = p.returned;
        leaf_t = p.end_t;
      }
    }
    // Walk leaf → root; guard against cycles from corrupt input.
    std::uint64_t cursor = leaf;
    while (cursor != 0 && rp.critical_path.size() <= r.probes.size()) {
      const auto it = r.probes.find(cursor);
      if (it == r.probes.end()) break;
      const ProbeInfo& p = it->second;
      rp.critical_path.push_back(
          {cursor, p.node, p.hop, p.spawn_t, p.end_t, p.end_t - p.spawn_t});
      cursor = p.parent;
    }
    std::reverse(rp.critical_path.begin(), rp.critical_path.end());
    paths.push_back(std::move(rp));
  }
  a.mean_setup_s = a.requests > 0 ? setup_sum / static_cast<double>(a.requests) : 0.0;

  std::sort(paths.begin(), paths.end(),
            [](const RequestPath& x, const RequestPath& y) { return x.setup_s > y.setup_s; });
  if (paths.size() > top_k) paths.resize(top_k);
  a.slowest = std::move(paths);
  return a;
}

void write_analysis(std::ostream& os, const Analysis& a) {
  os << "requests: " << a.requests << " (confirmed " << a.confirmed << ", failed " << a.failed
     << ", timeouts " << a.timeouts << ")\n";
  os << "probes spawned: " << a.probes_spawned << "\n";
  if (a.probe_retries > 0) os << "probe retries: " << a.probe_retries << "\n";
  os << "setup time: mean " << a.mean_setup_s << " s, max " << a.max_setup_s << " s\n";
  if (a.truncated) os << "NOTE: trace is truncated (abnormal writer exit)\n";
  for (const RequestPath& rp : a.slowest) {
    os << "\nrun " << rp.run << " req " << rp.req << ": " << rp.setup_s << " s, "
       << (rp.confirmed ? "confirmed" : "failed") << (rp.timed_out ? " (timeout)" : "") << ", "
       << rp.probes_spawned << " probes\n";
    os << "  critical path (" << rp.critical_path.size() << " hops):\n";
    for (const HopTiming& h : rp.critical_path) {
      os << "    hop " << h.hop << "  node " << h.node << "  probe " << h.probe << "  +"
         << h.latency_s << " s (t=" << h.spawn_t << " → " << h.end_t << ")\n";
    }
  }
}

// ---- validate -------------------------------------------------------------------

std::vector<Violation> validate(const TraceData& trace) {
  std::vector<Violation> violations;
  reconstruct(trace, &violations);
  return violations;
}

// ---- diff ------------------------------------------------------------------------

BenchDoc decode_bench(const JsonValue& doc) {
  const std::string schema = doc.str_or("schema", "");
  if (schema != "acp-bench/1" && schema != "acp-bench/2") {
    throw PreconditionError("not an acp-bench/1|2 document (schema: \"" + schema + "\")");
  }
  BenchDoc b;
  b.schema = schema;
  b.name = doc.str_or("name", "");
  b.git_sha = doc.str_or("git_sha", "");
  b.host = doc.str_or("host", "");  // absent in v1 → empty → host gates skip
  b.wall_s = doc.num_or("wall_s", 0.0);
  b.jobs = static_cast<std::uint64_t>(doc.num_or("jobs", 1.0));
  if (const JsonValue* h = doc.find("headline")) {
    b.runs = static_cast<std::uint64_t>(h->num_or("runs", 0.0));
    b.success_rate = h->num_or("success_rate", 0.0);
    b.overhead_per_minute = h->num_or("overhead_per_minute", 0.0);
    b.mean_phi = h->num_or("mean_phi", 0.0);
    b.events_per_sec = h->num_or("events_per_sec", 0.0);
    b.peak_rss_bytes = static_cast<std::uint64_t>(h->num_or("peak_rss_bytes", 0.0));
  }
  if (const JsonValue* scopes = doc.find("scopes")) {
    for (const JsonValue& s : scopes->array) {
      BenchDoc::Scope sc;
      sc.count = static_cast<std::uint64_t>(s.num_or("count", 0.0));
      sc.total_s = s.num_or("total_s", 0.0);
      sc.mean_s = s.num_or("mean_s", 0.0);
      sc.p99_s = s.num_or("p99_s", 0.0);
      b.scopes[s.str_or("scope", "?")] = sc;
    }
  }
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [key, value] : counters->object) {
      b.counters[key] = static_cast<std::uint64_t>(value.number);
    }
  }
  return b;
}

namespace {

/// A whole JSON document file's text; `what` names it in the error.
std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) throw PreconditionError(std::string("cannot open ") + what + ": " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

BenchDoc load_bench_file(const std::string& path) {
  return decode_bench(parse_json(read_file(path, "bench report")));
}

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

DiffResult diff(const BenchDoc& base, const BenchDoc& current, const DiffThresholds& th) {
  DiffResult res;
  if (base.name != current.name) {
    res.notes.push_back("comparing different benches: " + base.name + " vs " + current.name);
  }
  // Different worker-pool widths make every wall-clock observable
  // incomparable (N workers sharing the same cores inflate per-scope means
  // by up to Nx), so timing gates only apply at equal jobs. Sim metrics are
  // jobs-invariant by design and stay gated regardless.
  const bool wall_comparable = base.jobs == current.jobs;
  if (!wall_comparable) {
    res.notes.push_back("jobs differ: " + std::to_string(base.jobs) + " vs " +
                        std::to_string(current.jobs) +
                        " (wall-clock gates skipped; sim metrics must still agree)");
  }

  if (th.require_identical_sim) {
    // Jobs-invariance gate: the two documents describe the same seeded
    // simulation, so every deterministic observable must match bit-for-bit.
    if (base.runs != current.runs) {
      res.regressions.push_back("sim not identical: runs " + std::to_string(base.runs) + " vs " +
                                std::to_string(current.runs));
    }
    const auto require_exact = [&res](const char* what, double b, double c) {
      if (b != c) {
        res.regressions.push_back(std::string("sim not identical: ") + what + " " + fmt(b) +
                                  " vs " + fmt(c));
      }
    };
    require_exact("success_rate", base.success_rate, current.success_rate);
    require_exact("overhead_per_minute", base.overhead_per_minute, current.overhead_per_minute);
    require_exact("mean_phi", base.mean_phi, current.mean_phi);
    for (const auto& [name, b] : base.counters) {
      const auto it = current.counters.find(name);
      if (it == current.counters.end()) {
        res.regressions.push_back("sim not identical: counter " + name + " missing in current");
      } else if (it->second != b) {
        res.regressions.push_back("sim not identical: counter " + name + " " +
                                  std::to_string(b) + " vs " + std::to_string(it->second));
      }
    }
    for (const auto& [name, c] : current.counters) {
      (void)c;
      if (base.counters.count(name) == 0) {
        res.regressions.push_back("sim not identical: counter " + name + " missing in base");
      }
    }
  }

  // Deterministic sim metrics: same seed ⇒ same numbers, so any drift is a
  // code-behavior change, not noise.
  const double drop = base.success_rate - current.success_rate;
  if (drop > th.max_success_drop) {
    res.regressions.push_back("success_rate dropped " + fmt(drop) + " (" +
                              fmt(base.success_rate) + " → " + fmt(current.success_rate) +
                              ", allowed drop " + fmt(th.max_success_drop) + ")");
  }
  if (base.overhead_per_minute > 0.0 &&
      current.overhead_per_minute > base.overhead_per_minute * th.max_overhead_ratio) {
    res.regressions.push_back(
        "overhead_per_minute grew " + fmt(current.overhead_per_minute / base.overhead_per_minute) +
        "x (" + fmt(base.overhead_per_minute) + " → " + fmt(current.overhead_per_minute) +
        ", allowed " + fmt(th.max_overhead_ratio) + "x)");
  }
  if (base.mean_phi > 0.0 && current.mean_phi > base.mean_phi * th.max_phi_ratio) {
    res.regressions.push_back("mean_phi grew " + fmt(current.mean_phi / base.mean_phi) + "x (" +
                              fmt(base.mean_phi) + " → " + fmt(current.mean_phi) + ", allowed " +
                              fmt(th.max_phi_ratio) + "x)");
  }

  // Wall-clock: noisy across machines; thresholds are the caller's problem
  // (CI passes very loose ones).
  if (wall_comparable && base.wall_s > 0.0 && current.wall_s > base.wall_s * th.max_wall_ratio) {
    res.regressions.push_back("wall_s grew " + fmt(current.wall_s / base.wall_s) + "x (" +
                              fmt(base.wall_s) + " → " + fmt(current.wall_s) + " s, allowed " +
                              fmt(th.max_wall_ratio) + "x)");
  }

  // Host-headline gates (v2): even same-jobs numbers are incomparable
  // across machines, so these additionally need matching host names. Zero
  // on either side means the field predates the v2 schema — skip.
  const bool host_comparable =
      wall_comparable && !base.host.empty() && base.host == current.host;
  if (wall_comparable && !base.host.empty() && !current.host.empty() &&
      base.host != current.host) {
    res.notes.push_back("hosts differ: " + base.host + " vs " + current.host +
                        " (events_per_sec / peak RSS gates skipped)");
  }
  if (host_comparable && base.events_per_sec > 0.0 && current.events_per_sec > 0.0 &&
      current.events_per_sec < base.events_per_sec * th.min_events_rate_ratio) {
    res.regressions.push_back(
        "events_per_sec fell to " + fmt(current.events_per_sec / base.events_per_sec) + "x (" +
        fmt(base.events_per_sec) + " → " + fmt(current.events_per_sec) + ", floor " +
        fmt(th.min_events_rate_ratio) + "x)");
  }
  if (host_comparable && base.peak_rss_bytes > 0 && current.peak_rss_bytes > 0 &&
      static_cast<double>(current.peak_rss_bytes) >
          static_cast<double>(base.peak_rss_bytes) * th.max_rss_ratio) {
    res.regressions.push_back(
        "peak_rss_bytes grew " +
        fmt(static_cast<double>(current.peak_rss_bytes) /
            static_cast<double>(base.peak_rss_bytes)) +
        "x (" + std::to_string(base.peak_rss_bytes) + " → " +
        std::to_string(current.peak_rss_bytes) + ", allowed " + fmt(th.max_rss_ratio) + "x)");
  }
  for (const auto& [name, b] : base.scopes) {
    const auto it = current.scopes.find(name);
    if (it == current.scopes.end()) {
      res.notes.push_back("scope disappeared: " + name);
      continue;
    }
    if (!wall_comparable) continue;  // scope timings meaningless across jobs widths
    if (b.total_s < th.min_scope_total_s || b.mean_s <= 0.0) continue;  // below noise floor
    const double ratio = it->second.mean_s / b.mean_s;
    if (ratio > th.max_scope_ratio) {
      res.regressions.push_back("scope " + name + " mean_s grew " + fmt(ratio) + "x (" +
                                fmt(b.mean_s) + " → " + fmt(it->second.mean_s) +
                                " s, allowed " + fmt(th.max_scope_ratio) + "x)");
    }
  }
  for (const auto& [name, c] : current.scopes) {
    (void)c;
    if (base.scopes.count(name) == 0) res.notes.push_back("new scope: " + name);
  }
  return res;
}

void write_diff(std::ostream& os, const BenchDoc& base, const BenchDoc& current,
                const DiffResult& result) {
  os << "bench: " << current.name << "  (base " << base.git_sha << " → current "
     << current.git_sha << ")\n";
  os << "wall_s: " << base.wall_s << " → " << current.wall_s << "\n";
  if (base.events_per_sec > 0.0 || current.events_per_sec > 0.0) {
    os << "events_per_sec: " << base.events_per_sec << " → " << current.events_per_sec << "\n";
  }
  if (base.peak_rss_bytes > 0 || current.peak_rss_bytes > 0) {
    os << "peak_rss_bytes: " << base.peak_rss_bytes << " → " << current.peak_rss_bytes << "\n";
  }
  os << "success_rate: " << base.success_rate << " → " << current.success_rate << "\n";
  os << "overhead_per_minute: " << base.overhead_per_minute << " → "
     << current.overhead_per_minute << "\n";
  os << "mean_phi: " << base.mean_phi << " → " << current.mean_phi << "\n";
  for (const std::string& n : result.notes) os << "note: " << n << "\n";
  if (result.ok()) {
    os << "OK: no regression beyond thresholds\n";
  } else {
    for (const std::string& r : result.regressions) os << "REGRESSION: " << r << "\n";
  }
}

// ---- timeline loading -----------------------------------------------------------

TimelineData load_timeline(std::istream& in) {
  TimelineData data;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++data.lines;
    const obs::ParsedTraceEvent ev = obs::parse_trace_line(line);
    const std::string& type = ev.str("type");
    if (!saw_header) {
      if (type != "header" || ev.str("schema").rfind("acp-timeline/", 0) != 0) {
        throw PreconditionError(
            "not an acp-timeline stream (first row must be the schema header)");
      }
      data.schema = ev.str("schema");
      data.bench = ev.str("bench");
      data.git_sha = ev.str("git_sha");
      data.seed = static_cast<std::uint64_t>(ev.num("seed"));
      data.quick = ev.num("quick") != 0.0;
      saw_header = true;
      continue;
    }
    if (type == "run_start") {
      data.run_labels[static_cast<std::uint64_t>(ev.num("run"))] = ev.str("label");
      data.sim_lines.push_back(line);
      continue;
    }
    if (type == "sample") {
      TimelineSampleRow r;
      r.run = static_cast<std::uint64_t>(ev.num("run"));
      r.t = ev.num("t");
      r.events = static_cast<std::uint64_t>(ev.num("events"));
      r.events_per_s = ev.num("events_per_s");
      r.queue_depth = static_cast<std::uint64_t>(ev.num("queue_depth"));
      r.live_probes = static_cast<std::uint64_t>(ev.num("live_probes"));
      r.active_sessions = static_cast<std::uint64_t>(ev.num("active_sessions"));
      r.requests = static_cast<std::uint64_t>(ev.num("requests"));
      r.successes = static_cast<std::uint64_t>(ev.num("successes"));
      r.success_rate = ev.num("success_rate");
      r.mean_phi = ev.num("mean_phi");
      r.allocs = static_cast<std::uint64_t>(ev.num("allocs"));
      data.samples.push_back(r);
      data.sim_lines.push_back(line);
      continue;
    }
    if (type == "host_sample") {
      TimelineHostRow h;
      h.run = static_cast<std::uint64_t>(ev.num("run"));
      h.t = ev.num("t");
      h.wall_s = ev.num("wall_s");
      h.peak_rss_bytes = static_cast<std::uint64_t>(ev.num("peak_rss_bytes"));
      data.host_samples.push_back(h);
      continue;
    }
    // Forward compatibility: unknown row types are deterministic unless the
    // writer marked them host-side by the host_ prefix convention.
    if (type.rfind("host_", 0) != 0) data.sim_lines.push_back(line);
  }
  if (!saw_header) throw PreconditionError("empty timeline stream (no header row)");
  return data;
}

TimelineData load_timeline_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PreconditionError("cannot open timeline file: " + path);
  return load_timeline(in);
}

bool is_timeline_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string first;
  if (!std::getline(in, first)) return false;
  return first.find("\"acp-timeline/") != std::string::npos;
}

// ---- timeline analysis ----------------------------------------------------------

namespace {

/// Longest window of >= 3 samples with every events_per_s within
/// tol*window-mean of the window mean. Sliding two-pointer with monotonic
/// min/max deques: for each right end the left end only ever advances, so
/// the scan is linear. (Shrinking re-centres the mean, so this is a greedy
/// maximal window per right end — exact enough for steady-state reporting.)
SteadyWindow find_steady(const std::vector<const TimelineSampleRow*>& rows, double tol) {
  SteadyWindow best;
  std::vector<double> prefix(rows.size() + 1, 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) prefix[i + 1] = prefix[i] + rows[i]->events_per_s;
  std::deque<std::size_t> minq, maxq;
  std::size_t i = 0;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const double v = rows[j]->events_per_s;
    while (!minq.empty() && rows[minq.back()]->events_per_s >= v) minq.pop_back();
    minq.push_back(j);
    while (!maxq.empty() && rows[maxq.back()]->events_per_s <= v) maxq.pop_back();
    maxq.push_back(j);
    const auto steady = [&] {
      const double mean = (prefix[j + 1] - prefix[i]) / static_cast<double>(j - i + 1);
      const double band = tol * mean + 1e-12;
      return rows[maxq.front()]->events_per_s - mean <= band &&
             mean - rows[minq.front()]->events_per_s <= band;
    };
    while (i < j && !steady()) {
      if (minq.front() == i) minq.pop_front();
      if (maxq.front() == i) maxq.pop_front();
      ++i;
    }
    const std::size_t len = j - i + 1;
    if (len >= 3 && len > best.samples && steady()) {
      best.found = true;
      best.samples = len;
      best.start_t = rows[i]->t;
      best.end_t = rows[j]->t;
      best.mean_events_per_s = (prefix[j + 1] - prefix[i]) / static_cast<double>(len);
    }
  }
  return best;
}

SeriesStats series_stats(const char* name, const std::vector<const TimelineSampleRow*>& rows,
                         double (*get)(const TimelineSampleRow&)) {
  SeriesStats st;
  st.name = name;
  double sum = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double v = get(*rows[i]);
    sum += v;
    if (i == 0 || v < st.min) {
      st.min = v;
      st.min_t = rows[i]->t;
    }
    if (i == 0 || v > st.max) {
      st.max = v;
      st.max_t = rows[i]->t;
    }
  }
  st.mean = rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
  double var = 0.0;
  for (const TimelineSampleRow* r : rows) {
    const double d = get(*r) - st.mean;
    var += d * d;
  }
  st.stddev = rows.empty() ? 0.0 : std::sqrt(var / static_cast<double>(rows.size()));
  if (st.stddev > 0.0) {
    const double band = 3.0 * st.stddev;
    std::size_t extra = 0;
    for (const TimelineSampleRow* r : rows) {
      const double v = get(*r);
      if (std::abs(v - st.mean) <= band) continue;
      if (st.anomalies.size() < 5) {
        st.anomalies.push_back("t=" + fmt(r->t) + ": " + fmt(v) + " (3-sigma band [" +
                               fmt(st.mean - band) + ", " + fmt(st.mean + band) + "])");
      } else {
        ++extra;
      }
    }
    if (extra > 0) st.anomalies.push_back("… and " + std::to_string(extra) + " more");
  }
  return st;
}

}  // namespace

TimelineAnalysis analyze_timeline(const TimelineData& data, double steady_tol,
                                  std::size_t window) {
  TimelineAnalysis a;
  a.bench = data.bench;
  a.seed = data.seed;
  a.quick = data.quick;

  std::map<std::uint64_t, std::vector<const TimelineSampleRow*>> by_run;
  for (const TimelineSampleRow& s : data.samples) by_run[s.run].push_back(&s);

  for (const auto& [run, rows] : by_run) {
    RunTimeline rt;
    rt.run = run;
    if (const auto it = data.run_labels.find(run); it != data.run_labels.end()) {
      rt.label = it->second;
    }
    rt.samples = rows.size();
    rt.first_t = rows.front()->t;
    rt.last_t = rows.back()->t;
    rt.steady = find_steady(rows, steady_tol);

    using Getter = double (*)(const TimelineSampleRow&);
    static constexpr std::pair<const char*, Getter> kSeries[] = {
        {"events_per_s", [](const TimelineSampleRow& s) { return s.events_per_s; }},
        {"queue_depth",
         [](const TimelineSampleRow& s) { return static_cast<double>(s.queue_depth); }},
        {"live_probes",
         [](const TimelineSampleRow& s) { return static_cast<double>(s.live_probes); }},
        {"active_sessions",
         [](const TimelineSampleRow& s) { return static_cast<double>(s.active_sessions); }},
        {"success_rate", [](const TimelineSampleRow& s) { return s.success_rate; }},
        {"mean_phi", [](const TimelineSampleRow& s) { return s.mean_phi; }},
    };
    for (const auto& [name, get] : kSeries) rt.series.push_back(series_stats(name, rows, get));

    std::size_t w = window;
    if (w == 0) w = std::max<std::size_t>(1, rows.size() / 12);
    for (std::size_t start = 0; start < rows.size(); start += w) {
      const std::size_t end = std::min(start + w, rows.size());
      WindowRate wr;
      wr.start_t = rows[start]->t;
      wr.end_t = rows[end - 1]->t;
      wr.samples = end - start;
      for (std::size_t k = start; k < end; ++k) {
        wr.mean_events_per_s += rows[k]->events_per_s;
        wr.mean_queue_depth += static_cast<double>(rows[k]->queue_depth);
        wr.max_queue_depth = std::max(wr.max_queue_depth, rows[k]->queue_depth);
      }
      wr.mean_events_per_s /= static_cast<double>(wr.samples);
      wr.mean_queue_depth /= static_cast<double>(wr.samples);
      rt.windows.push_back(wr);
    }
    a.runs.push_back(std::move(rt));
  }
  return a;
}

void write_timeline_analysis(std::ostream& os, const TimelineAnalysis& a) {
  os << "timeline: " << a.bench << " (seed " << a.seed << (a.quick ? ", quick" : "") << ")\n";
  for (const RunTimeline& rt : a.runs) {
    os << "\nrun " << rt.run;
    if (!rt.label.empty()) os << " [" << rt.label << "]";
    os << ": " << rt.samples << " samples, t " << rt.first_t << " → " << rt.last_t << " s\n";
    if (rt.steady.found) {
      os << "  steady state: t " << rt.steady.start_t << " → " << rt.steady.end_t << " s ("
         << rt.steady.samples << " samples, " << rt.steady.mean_events_per_s
         << " events/s sim)\n";
    } else {
      os << "  steady state: none (no window of >= 3 samples within tolerance)\n";
    }
    os << "  series (min@t / mean ± stddev / max@t):\n";
    for (const SeriesStats& st : rt.series) {
      os << "    " << st.name << ": " << st.min << " @t=" << st.min_t << " / " << st.mean
         << " ± " << st.stddev << " / " << st.max << " @t=" << st.max_t << "\n";
    }
    os << "  windows:\n";
    for (const WindowRate& wr : rt.windows) {
      os << "    t " << wr.start_t << " → " << wr.end_t << " s: " << wr.mean_events_per_s
         << " events/s, queue " << wr.mean_queue_depth << " mean / " << wr.max_queue_depth
         << " max\n";
    }
    bool any_anomaly = false;
    for (const SeriesStats& st : rt.series) {
      for (const std::string& an : st.anomalies) {
        if (!any_anomaly) os << "  anomalies:\n";
        any_anomaly = true;
        os << "    " << st.name << " " << an << "\n";
      }
    }
  }
}

// ---- timeline diff --------------------------------------------------------------

DiffResult diff_timelines(const TimelineData& base, const TimelineData& current) {
  DiffResult res;
  if (base.schema != current.schema) {
    res.regressions.push_back("sim not identical: schema " + base.schema + " vs " +
                              current.schema);
  }
  if (base.bench != current.bench) {
    res.notes.push_back("comparing different benches: " + base.bench + " vs " + current.bench);
  }
  if (base.seed != current.seed) {
    res.regressions.push_back("sim not identical: seed " + std::to_string(base.seed) + " vs " +
                              std::to_string(current.seed));
  }
  if (base.quick != current.quick) {
    res.regressions.push_back(std::string("sim not identical: quick ") +
                              (base.quick ? "true" : "false") + " vs " +
                              (current.quick ? "true" : "false"));
  }
  if (base.git_sha != current.git_sha) {
    res.notes.push_back("git_sha differs: " + base.git_sha + " vs " + current.git_sha +
                        " (header identity is field-wise; sha is informational)");
  }
  const std::size_t n = std::min(base.sim_lines.size(), current.sim_lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (base.sim_lines[i] != current.sim_lines[i]) {
      // Everything after the first divergence is usually offset noise, so
      // report only where the streams fork.
      res.regressions.push_back("sim not identical: deterministic row " + std::to_string(i + 1) +
                                " diverges\n  base:    " + base.sim_lines[i] +
                                "\n  current: " + current.sim_lines[i]);
      break;
    }
  }
  if (base.sim_lines.size() != current.sim_lines.size()) {
    res.regressions.push_back(
        "sim not identical: " + std::to_string(base.sim_lines.size()) + " vs " +
        std::to_string(current.sim_lines.size()) + " deterministic rows");
  }
  return res;
}

void write_timeline_diff(std::ostream& os, const TimelineData& base,
                         const TimelineData& current, const DiffResult& result) {
  os << "timeline: " << current.bench << "  (base " << base.git_sha << " → current "
     << current.git_sha << ")\n";
  os << "deterministic rows: " << base.sim_lines.size() << " vs " << current.sim_lines.size()
     << ", host rows (exempt): " << base.host_samples.size() << " vs "
     << current.host_samples.size() << "\n";
  for (const std::string& n : result.notes) os << "note: " << n << "\n";
  if (result.ok()) {
    os << "OK: deterministic timeline rows identical\n";
  } else {
    for (const std::string& r : result.regressions) os << "REGRESSION: " << r << "\n";
  }
}

// ---- explain: one request's causal span tree -----------------------------------

namespace {

/// Probe ids on the request's critical path — the same selection rule
/// analyze() uses: the latest-completing returned probe (the one the
/// deputy's merge actually waited on), else the latest-ending probe, plus
/// its causal ancestry back to the root.
std::set<std::uint64_t> critical_probe_set(const ReqInfo& r) {
  std::uint64_t leaf = 0;
  bool leaf_returned = false;
  double leaf_t = -1.0;
  for (const auto& [id, p] : r.probes) {
    const bool better =
        (p.returned && !leaf_returned) || (p.returned == leaf_returned && p.end_t > leaf_t);
    if (leaf == 0 || better) {
      leaf = id;
      leaf_returned = p.returned;
      leaf_t = p.end_t;
    }
  }
  std::set<std::uint64_t> on_path;
  std::uint64_t cursor = leaf;
  while (cursor != 0 && on_path.size() <= r.probes.size()) {
    if (r.probes.count(cursor) == 0 || !on_path.insert(cursor).second) break;
    cursor = r.probes.at(cursor).parent;
  }
  return on_path;
}

/// Children of each probe (and the roots), in spawn order — probe ids are
/// allocated monotonically, so id order IS spawn order.
struct ProbeTree {
  std::map<std::uint64_t, std::vector<std::uint64_t>> children;
  std::vector<std::uint64_t> roots;
};

ProbeTree probe_tree(const ReqInfo& r) {
  ProbeTree t;
  for (const auto& [id, p] : r.probes) {
    if (p.parent != 0 && r.probes.count(p.parent) > 0) {
      t.children[p.parent].push_back(id);
    } else {
      t.roots.push_back(id);
    }
  }
  return t;
}

void render_probe_line(std::ostream& os, const ReqInfo& r, std::uint64_t id,
                       const std::set<std::uint64_t>& critical, const ProbeTree& tree,
                       std::size_t depth, std::set<std::uint64_t>& visited) {
  if (!visited.insert(id).second) return;  // corrupt input could cycle
  const ProbeInfo& p = r.probes.at(id);

  os << "  " << std::string(2 * depth, ' ') << (critical.count(id) > 0 ? "* " : "  ");
  os << "probe " << id << "  node " << p.node << "  hop " << p.hop << "  path " << p.path;
  if (p.component >= 0) os << "  comp " << p.component;
  os << "  t " << fmt(p.spawn_t) << "→" << fmt(p.end_t) << " ("
     << fmt((p.end_t - p.spawn_t) * 1e3) << " ms)";
  const auto kids = tree.children.find(id);
  const std::size_t n_kids = kids == tree.children.end() ? 0 : kids->second.size();
  switch (p.end) {
    case ProbeInfo::End::kFork: os << "  forked " << n_kids; break;
    case ProbeInfo::End::kReturned: os << "  returned"; break;
    case ProbeInfo::End::kRejected:
      os << "  rejected: " << p.reason;
      if (p.moved_component >= 0) os << " (component " << p.moved_component << ")";
      break;
    case ProbeInfo::End::kNone: os << "  outstanding"; break;
  }
  if (p.retries > 0) os << "  [" << p.retries << " retr" << (p.retries == 1 ? "y" : "ies") << "]";
  os << "\n";

  if (kids == tree.children.end()) return;
  for (const std::uint64_t child : kids->second) {
    render_probe_line(os, r, child, critical, tree, depth + 1, visited);
  }
}

void render_request(std::ostream& os, const ReqKey& key, const ReqInfo& r) {
  os << "run " << key.first << " req " << key.second << ": ";
  if (!r.terminal) {
    os << "UNTERMINATED (trace cut short?)";
  } else if (r.confirmed) {
    os << "CONFIRMED  session " << r.session << "  phi " << fmt(r.phi);
  } else {
    os << "FAILED" << (r.timed_out ? " (probe timeout)" : " (no qualified composition)");
  }
  os << "\n";
  os << "  deputy node " << r.deputy << ", " << r.paths << " path"
     << (r.paths == 1 ? "" : "s") << ", alpha " << fmt(r.alpha) << "\n";
  os << "  t " << fmt(r.accepted_t) << " → " << fmt(r.end_t) << "  setup " << fmt(r.setup_s)
     << " s\n";
  os << "  probes: " << r.spawns << " spawned = " << r.forks << " forked + " << r.returns
     << " returned + " << r.rejects << " rejected";
  if (r.timed_out) {
    os << " + " << static_cast<std::uint64_t>(r.timeout_outstanding) << " outstanding at timeout";
  }
  if (r.retries > 0) os << "; " << r.retries << " retransmissions";
  os << "\n";

  const std::set<std::uint64_t> critical = critical_probe_set(r);
  const ProbeTree tree = probe_tree(r);
  os << "  span tree (indent = spawned-by; * = critical path):\n";
  std::set<std::uint64_t> visited;
  for (const std::uint64_t root : tree.roots) {
    render_probe_line(os, r, root, critical, tree, 0, visited);
  }

  if (r.terminal && !r.confirmed && !r.reject_reasons.empty()) {
    os << "  failure reasons (" << r.rejects << " rejected probes):\n";
    for (const auto& [reason, n] : r.reject_reasons) {
      os << "    " << reason << "  " << n << "\n";
    }
  }
}

}  // namespace

std::size_t explain(std::ostream& os, const TraceData& trace, const ExplainQuery& q) {
  const std::map<ReqKey, ReqInfo> reqs = reconstruct(trace, nullptr);
  std::size_t matched = 0;
  for (const auto& [key, r] : reqs) {
    if (q.run != 0 && key.first != q.run) continue;
    if (q.by_session) {
      if (!r.confirmed || r.session != q.id) continue;
    } else {
      if (key.second != q.id) continue;
    }
    if (matched > 0) os << "\n";
    ++matched;
    render_request(os, key, r);
  }
  if (matched > 0 && trace.truncated) {
    os << "NOTE: trace is truncated (abnormal writer exit)\n";
  }
  return matched;
}

// ---- export: Chrome-trace / folded-stack span dumps ----------------------------

namespace {

/// run index → algorithm label, from run_started markers.
std::map<std::uint64_t, std::string> run_labels(const TraceData& trace) {
  std::map<std::uint64_t, std::string> labels;
  for (const auto& ev : trace.events) {
    if (ev.str("type") == "run_started") {
      labels[static_cast<std::uint64_t>(ev.num("run"))] =
          ev.has("label") ? ev.str("label") : "";
    }
  }
  return labels;
}

/// Latest event time attributable to the request — terminal requests can
/// still have probes settling afterwards (timeout path), and truncated
/// traces have no terminal at all; the enclosing Chrome span must cover
/// every child span either way.
double request_span_end(const ReqInfo& r) {
  double end = r.terminal ? r.end_t : r.accepted_t;
  for (const auto& [id, p] : r.probes) end = std::max(end, p.end_t);
  return end;
}

const char* request_state(const ReqInfo& r) {
  if (!r.terminal) return "unterminated";
  return r.confirmed ? "confirmed" : "failed";
}

}  // namespace

ExportStats export_chrome_trace(std::ostream& os, const TraceData& trace) {
  const std::map<ReqKey, ReqInfo> reqs = reconstruct(trace, nullptr);
  const std::map<std::uint64_t, std::string> labels = run_labels(trace);

  ExportStats st;
  os << "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&os, &first](const std::string& line) {
    os << (first ? "\n" : ",\n") << line;
    first = false;
  };

  for (const auto& [run, label] : labels) {
    emit("{\"ph\": \"M\", \"pid\": " + std::to_string(run) +
         ", \"name\": \"process_name\", \"args\": {\"name\": \"run " + std::to_string(run) +
         " " + obs::json_escape(label) + "\"}}");
  }

  for (const auto& [key, r] : reqs) {
    if (!r.accepted) continue;
    const std::string pid = std::to_string(key.first);
    const std::string tid = std::to_string(key.second);
    ++st.requests;
    emit("{\"ph\": \"X\", \"pid\": " + pid + ", \"tid\": " + tid + ", \"ts\": " +
         obs::json_number(r.accepted_t * 1e6) + ", \"dur\": " +
         obs::json_number((request_span_end(r) - r.accepted_t) * 1e6) + ", \"name\": \"req " +
         tid + " " + request_state(r) + "\", \"cat\": \"request\", \"args\": {\"session\": " +
         std::to_string(r.session) + ", \"phi\": " + obs::json_number(r.phi) +
         ", \"setup_s\": " + obs::json_number(r.setup_s) + ", \"probes\": " +
         std::to_string(r.spawns) + ", \"deputy\": " + std::to_string(r.deputy) + "}}");

    for (const auto& [id, p] : r.probes) {
      ++st.probe_spans;
      std::string line = "{\"ph\": \"X\", \"pid\": " + pid + ", \"tid\": " + tid +
                         ", \"ts\": " + obs::json_number(p.spawn_t * 1e6) + ", \"dur\": " +
                         obs::json_number((p.end_t - p.spawn_t) * 1e6) + ", \"name\": \"probe " +
                         std::to_string(id) + " @node " + std::to_string(p.node) +
                         "\", \"cat\": \"probe\", \"args\": {\"probe\": " + std::to_string(id) +
                         ", \"parent\": " + std::to_string(p.parent) + ", \"hop\": " +
                         std::to_string(p.hop) + ", \"path\": " + std::to_string(p.path) +
                         ", \"node\": " + std::to_string(p.node) + ", \"disposition\": \"" +
                         disposition_name(p.end) + "\"";
      if (!p.reason.empty()) line += ", \"reason\": \"" + obs::json_escape(p.reason) + "\"";
      if (p.component >= 0) line += ", \"component\": " + std::to_string(p.component);
      if (p.retries > 0) line += ", \"retries\": " + std::to_string(p.retries);
      line += "}}";
      emit(line);
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return st;
}

ExportStats export_folded_stacks(std::ostream& os, const TraceData& trace) {
  const std::map<ReqKey, ReqInfo> reqs = reconstruct(trace, nullptr);

  // Aggregate across requests: the stack is the overlay-node chain along
  // the probe's causal ancestry, the weight the probe's OWN span (a forking
  // probe ends where its children spawn, so self-time is already exclusive
  // and the per-run weights sum to total probe-seconds).
  std::map<std::string, std::uint64_t> agg;
  ExportStats st;
  for (const auto& [key, r] : reqs) {
    for (const auto& [id, p] : r.probes) {
      const auto weight =
          static_cast<std::uint64_t>(std::llround(std::max(0.0, p.end_t - p.spawn_t) * 1e6));
      if (weight == 0) continue;
      std::vector<std::uint64_t> chain;  // self → root
      std::uint64_t cursor = id;
      while (cursor != 0 && chain.size() <= r.probes.size()) {
        const auto it = r.probes.find(cursor);
        if (it == r.probes.end()) break;
        chain.push_back(it->second.node);
        cursor = it->second.parent;
      }
      std::string stack = "run" + std::to_string(key.first);
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        stack += ";node" + std::to_string(*it);
      }
      agg[stack] += weight;
      ++st.probe_spans;
    }
  }
  for (const auto& [stack, weight] : agg) {
    os << stack << " " << weight << "\n";
    ++st.stacks;
  }
  return st;
}

// ---- attribution artifacts ------------------------------------------------------

AttrDoc load_attribution(std::istream& in) {
  AttrDoc d;
  std::string line;
  bool saw_header = false;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parse_json(line);
    } catch (const std::exception& e) {
      throw PreconditionError("attribution line " + std::to_string(line_no) + ": " + e.what());
    }
    const std::string type = v.str_or("type", "");
    if (!saw_header) {
      const std::string schema = v.str_or("schema", "");
      if (type != "header" || schema != "acp-attr/1") {
        throw PreconditionError("not an acp-attr/1 artifact (first line type \"" + type +
                                "\", schema \"" + schema + "\")");
      }
      d.schema = schema;
      d.bench = v.str_or("bench", "");
      d.git_sha = v.str_or("git_sha", "");
      d.seed = static_cast<std::uint64_t>(v.num_or("seed", 0.0));
      const JsonValue* quick = v.find("quick");
      d.quick = quick != nullptr && quick->boolean;
      saw_header = true;
      continue;
    }
    if (type == "attr") {
      AttrDoc::Row r;
      r.phase = v.str_or("phase", "?");
      r.node = static_cast<std::int64_t>(v.num_or("node", -1.0));
      r.fn = static_cast<std::int64_t>(v.num_or("fn", -1.0));
      r.count = static_cast<std::uint64_t>(v.num_or("count", 0.0));
      r.sim_s = v.num_or("sim_s", 0.0);
      d.rows.push_back(std::move(r));
    } else if (type == "attr_wait") {
      AttrDoc::Wait w;
      w.kind = v.str_or("kind", "?");
      w.count = static_cast<std::uint64_t>(v.num_or("count", 0.0));
      w.sim_s = v.num_or("sim_s", 0.0);
      d.waits.push_back(std::move(w));
    } else if (type == "attr_host") {
      AttrDoc::Host h;
      h.phase = v.str_or("phase", "?");
      h.node = static_cast<std::int64_t>(v.num_or("node", -1.0));
      h.count = static_cast<std::uint64_t>(v.num_or("count", 0.0));
      h.wall_s = v.num_or("wall_s", 0.0);
      d.host.push_back(std::move(h));
    } else if (type == "attr_total") {
      d.total_count = static_cast<std::uint64_t>(v.num_or("count", 0.0));
      d.total_sim_s = v.num_or("sim_s", 0.0);
    }
    // Unknown row types within the schema are skipped (forward compat).
  }
  if (!saw_header) throw PreconditionError("empty attribution artifact (no header line)");
  return d;
}

AttrDoc load_attribution_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PreconditionError("cannot open attribution artifact: " + path);
  return load_attribution(in);
}

ExportStats export_attribution_folded(std::ostream& os, const AttrDoc& attr) {
  ExportStats st;
  for (const AttrDoc::Row& r : attr.rows) {
    // sim-µs weight; phases that charge no sim time (rank) fall back to the
    // occurrence count so their fan-out is still visible in the graph.
    const auto weight = static_cast<std::uint64_t>(
        r.sim_s > 0.0 ? std::llround(r.sim_s * 1e6) : static_cast<long long>(r.count));
    if (weight == 0) continue;
    os << "attr;" << r.phase << ";node" << r.node;
    if (r.fn >= 0) os << ";fn" << r.fn;
    os << " " << weight << "\n";
    ++st.stacks;
  }
  return st;
}

// ---- Allocation budget ------------------------------------------------------

namespace {

std::uint64_t count_field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || f->kind != JsonValue::Kind::kNumber || f->number < 0.0 ||
      f->number != std::floor(f->number)) {
    throw PreconditionError(std::string("missing or non-integer \"") + key + "\"");
  }
  return static_cast<std::uint64_t>(f->number);
}

}  // namespace

AllocBudget decode_alloc_budget(const JsonValue& doc) {
  const std::string schema = doc.str_or("schema", "");
  if (schema != "acp-alloc-budget/1") {
    throw PreconditionError("not an acp-alloc-budget/1 document (schema: \"" + schema + "\")");
  }
  AllocBudget b;
  b.toolchain = doc.str_or("toolchain", "");
  const JsonValue* scopes = doc.find("scopes");
  if (scopes == nullptr || scopes->kind != JsonValue::Kind::kArray) {
    throw PreconditionError("alloc budget has no \"scopes\" array");
  }
  for (const JsonValue& s : scopes->array) {
    const std::string name = s.str_or("scope", "");
    if (name.empty()) throw PreconditionError("alloc budget entry without a scope");
    const AllocScope budget{count_field(s, "calls"), count_field(s, "allocs")};
    if (!b.scopes.emplace(name, budget).second) {
      throw PreconditionError("alloc budget lists scope twice: " + name);
    }
  }
  return b;
}

AllocBudget load_alloc_budget_file(const std::string& path) {
  return decode_alloc_budget(parse_json(read_file(path, "alloc budget")));
}

AllocTable decode_alloc_metrics(const JsonValue& doc) {
  AllocTable table;
  if (const JsonValue* hists = doc.find("histograms")) {
    for (const JsonValue& h : hists->array) {
      if (h.str_or("name", "") != obs::metric::kProfAllocs) continue;
      const JsonValue* labels = h.find("labels");
      const std::string scope = labels == nullptr ? "" : labels->str_or("scope", "");
      if (scope.empty()) continue;
      table[scope] = AllocScope{count_field(h, "count"), count_field(h, "sum")};
    }
  }
  if (table.empty()) {
    throw PreconditionError(std::string("no ") + obs::metric::kProfAllocs +
                            " series (is the build ACPSTREAM_PROF_ALLOC=ON?)");
  }
  return table;
}

AllocTable load_alloc_metrics_file(const std::string& path) {
  return decode_alloc_metrics(parse_json(read_file(path, "metrics snapshot")));
}

AllocCheck check_alloc_budget(const AllocTable& budget, const AllocTable& measured) {
  AllocCheck check;
  for (const auto& [scope, want] : budget) {
    const auto it = measured.find(scope);
    if (it == measured.end()) {
      check.failures.push_back(scope + ": budgeted but not measured");
      continue;
    }
    const AllocScope& got = it->second;
    if (got.calls != want.calls) {
      check.failures.push_back(scope + ": " + std::to_string(got.calls) + " calls, budget has " +
                               std::to_string(want.calls) + " (calls are sim counts)");
    }
    if (got.allocs > want.allocs) {
      check.failures.push_back(scope + ": " + std::to_string(got.allocs) +
                               " allocations over the budget's " + std::to_string(want.allocs));
    } else if (got.allocs < want.allocs) {
      check.notes.push_back(scope + ": " + std::to_string(got.allocs) +
                            " allocations, under the budget's " + std::to_string(want.allocs) +
                            "; lower the budget to match");
    }
  }
  for (const auto& [scope, got] : measured) {
    if (budget.count(scope) == 0) {
      check.notes.push_back(scope + ": measured (" + std::to_string(got.allocs) +
                            " allocations) but not budgeted");
    }
  }
  return check;
}

void write_alloc_check(std::ostream& os, const AllocBudget& budget, const AllocTable& measured,
                       const AllocCheck& check) {
  os << "alloc budget (" << (budget.toolchain.empty() ? "toolchain unrecorded" : budget.toolchain)
     << ")\n";
  for (const auto& [scope, want] : budget.scopes) {
    const auto it = measured.find(scope);
    os << "  " << scope << ": budget " << want.allocs << " allocs / " << want.calls << " calls";
    if (it != measured.end()) {
      const AllocScope& got = it->second;
      os << ", measured " << got.allocs << " / " << got.calls;
      if (got.calls > 0) {
        os << " (" << fmt(static_cast<double>(got.allocs) / static_cast<double>(got.calls))
           << " per call)";
      }
    }
    os << '\n';
  }
  for (const auto& n : check.notes) os << "note: " << n << '\n';
  for (const auto& f : check.failures) os << "FAIL: " << f << '\n';
  os << (check.ok() ? "OK: within the allocation budget\n" : "allocation budget exceeded\n");
}

}  // namespace acp::tracecli
